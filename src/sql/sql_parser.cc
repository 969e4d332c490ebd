#include "src/sql/sql_parser.h"

#include <cctype>
#include <cstdlib>

#include "src/common/strings.h"

namespace orochi {

namespace {

enum class TokKind : uint8_t {
  kEnd, kWord, kInt, kFloat, kString,
  kLParen, kRParen, kComma, kStar, kEq, kNe, kLt, kLe, kGt, kGe,
  kPlus, kMinus, kSlash, kDot,
};

struct Tok {
  TokKind kind;
  std::string word;   // Lower-cased for kWord.
  std::string raw;    // Original spelling (identifiers keep case; we lower anyway).
  int64_t int_val = 0;
  double float_val = 0.0;
};

class SqlLexer {
 public:
  explicit SqlLexer(const std::string& s) : s_(s) {}

  Result<std::vector<Tok>> Run() {
    std::vector<Tok> out;
    while (true) {
      while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
        pos_++;
      }
      if (pos_ >= s_.size()) {
        out.push_back({TokKind::kEnd, "", "", 0, 0.0});
        return out;
      }
      char c = s_[pos_];
      if (c == '(') { pos_++; out.push_back({TokKind::kLParen, "", "", 0, 0}); continue; }
      if (c == ')') { pos_++; out.push_back({TokKind::kRParen, "", "", 0, 0}); continue; }
      if (c == ',') { pos_++; out.push_back({TokKind::kComma, "", "", 0, 0}); continue; }
      if (c == '*') { pos_++; out.push_back({TokKind::kStar, "", "", 0, 0}); continue; }
      if (c == '+') { pos_++; out.push_back({TokKind::kPlus, "", "", 0, 0}); continue; }
      if (c == '-') { pos_++; out.push_back({TokKind::kMinus, "", "", 0, 0}); continue; }
      if (c == '/') { pos_++; out.push_back({TokKind::kSlash, "", "", 0, 0}); continue; }
      if (c == ';') { pos_++; continue; }  // Tolerated trailing separator.
      if (c == '=') { pos_++; out.push_back({TokKind::kEq, "", "", 0, 0}); continue; }
      if (c == '!') {
        if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '=') {
          pos_ += 2;
          out.push_back({TokKind::kNe, "", "", 0, 0});
          continue;
        }
        return Result<std::vector<Tok>>::Error("sql lex: expected '!='");
      }
      if (c == '<') {
        if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '=') {
          pos_ += 2;
          out.push_back({TokKind::kLe, "", "", 0, 0});
        } else if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '>') {
          pos_ += 2;
          out.push_back({TokKind::kNe, "", "", 0, 0});
        } else {
          pos_++;
          out.push_back({TokKind::kLt, "", "", 0, 0});
        }
        continue;
      }
      if (c == '>') {
        if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '=') {
          pos_ += 2;
          out.push_back({TokKind::kGe, "", "", 0, 0});
        } else {
          pos_++;
          out.push_back({TokKind::kGt, "", "", 0, 0});
        }
        continue;
      }
      if (c == '\'') {
        pos_++;
        std::string body;
        while (true) {
          if (pos_ >= s_.size()) {
            return Result<std::vector<Tok>>::Error("sql lex: unterminated string");
          }
          if (s_[pos_] == '\'') {
            if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '\'') {
              body += '\'';
              pos_ += 2;
              continue;
            }
            pos_++;
            break;
          }
          body += s_[pos_++];
        }
        Tok t{TokKind::kString, "", "", 0, 0};
        t.raw = std::move(body);
        out.push_back(std::move(t));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string digits;
        bool is_float = false;
        while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
          digits += s_[pos_++];
        }
        if (pos_ + 1 < s_.size() && s_[pos_] == '.' &&
            std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
          is_float = true;
          digits += s_[pos_++];
          while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
            digits += s_[pos_++];
          }
        }
        Tok t{is_float ? TokKind::kFloat : TokKind::kInt, "", "", 0, 0};
        if (is_float) {
          t.float_val = std::strtod(digits.c_str(), nullptr);
        } else {
          errno = 0;
          t.int_val = std::strtoll(digits.c_str(), nullptr, 10);
          if (errno != 0) {
            return Result<std::vector<Tok>>::Error("sql lex: integer out of range");
          }
        }
        out.push_back(std::move(t));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string word;
        while (pos_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                                    s_[pos_] == '_')) {
          word += s_[pos_++];
        }
        Tok t{TokKind::kWord, AsciiLower(word), std::move(word), 0, 0};
        out.push_back(std::move(t));
        continue;
      }
      return Result<std::vector<Tok>>::Error(std::string("sql lex: unexpected character '") +
                                             c + "'");
    }
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

class SqlParser {
 public:
  explicit SqlParser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  Result<SqlStatement> Run() {
    Result<SqlStatement> r = ParseStatement();
    if (!r.ok()) {
      return r;
    }
    if (!Check(TokKind::kEnd)) {
      return Err("trailing tokens after statement");
    }
    return r;
  }

 private:
  Result<SqlStatement> Err(const std::string& m) {
    return Result<SqlStatement>::Error("sql parse: " + m);
  }

  const Tok& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Tok& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool Check(TokKind k) const { return Peek().kind == k; }
  bool CheckWord(const char* w) const {
    return Peek().kind == TokKind::kWord && Peek().word == w;
  }
  bool MatchWord(const char* w) {
    if (CheckWord(w)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Match(TokKind k) {
    if (Check(k)) {
      Advance();
      return true;
    }
    return false;
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (!Check(TokKind::kWord)) {
      return Result<std::string>::Error(std::string("sql parse: expected ") + what);
    }
    return Advance().word;
  }

  Result<SqlStatement> ParseStatement() {
    if (MatchWord("create")) {
      return ParseCreate();
    }
    if (MatchWord("insert")) {
      return ParseInsert();
    }
    if (MatchWord("select")) {
      return ParseSelect();
    }
    if (MatchWord("update")) {
      return ParseUpdate();
    }
    if (MatchWord("delete")) {
      return ParseDelete();
    }
    return Err("expected CREATE, INSERT, SELECT, UPDATE, or DELETE");
  }

  Result<SqlStatement> ParseCreate() {
    if (!MatchWord("table")) {
      return Err("expected TABLE after CREATE");
    }
    SqlStatement st;
    st.kind = SqlStmtKind::kCreateTable;
    Result<std::string> name = ExpectIdent("table name");
    if (!name.ok()) {
      return Err(name.error());
    }
    st.table = name.value();
    if (!Match(TokKind::kLParen)) {
      return Err("expected '(' in CREATE TABLE");
    }
    while (true) {
      Result<std::string> col = ExpectIdent("column name");
      if (!col.ok()) {
        return Err(col.error());
      }
      SqlType type;
      if (MatchWord("int") || MatchWord("integer") || MatchWord("bigint")) {
        type = SqlType::kInt;
      } else if (MatchWord("float") || MatchWord("double") || MatchWord("real")) {
        type = SqlType::kFloat;
      } else if (MatchWord("text") || MatchWord("varchar")) {
        // Optional length, e.g. VARCHAR(255).
        if (Match(TokKind::kLParen)) {
          if (!Check(TokKind::kInt)) {
            return Err("expected length in VARCHAR(n)");
          }
          Advance();
          if (!Match(TokKind::kRParen)) {
            return Err("expected ')' after VARCHAR length");
          }
        }
        type = SqlType::kText;
      } else {
        return Err("unknown column type");
      }
      st.columns.push_back({col.value(), type});
      if (Match(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (!Match(TokKind::kRParen)) {
      return Err("expected ')' at end of CREATE TABLE");
    }
    return st;
  }

  Result<SqlStatement> ParseInsert() {
    if (!MatchWord("into")) {
      return Err("expected INTO after INSERT");
    }
    SqlStatement st;
    st.kind = SqlStmtKind::kInsert;
    Result<std::string> name = ExpectIdent("table name");
    if (!name.ok()) {
      return Err(name.error());
    }
    st.table = name.value();
    if (!Match(TokKind::kLParen)) {
      return Err("expected '(' with column list in INSERT");
    }
    while (true) {
      Result<std::string> col = ExpectIdent("column name");
      if (!col.ok()) {
        return Err(col.error());
      }
      st.insert_columns.push_back(col.value());
      if (Match(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (!Match(TokKind::kRParen)) {
      return Err("expected ')' after column list");
    }
    if (!MatchWord("values")) {
      return Err("expected VALUES");
    }
    while (true) {
      if (!Match(TokKind::kLParen)) {
        return Err("expected '(' in VALUES");
      }
      std::vector<SqlExprPtr> row;
      while (true) {
        Result<SqlExprPtr> e = ParseExpr();
        if (!e.ok()) {
          return Err(e.error());
        }
        row.push_back(std::move(e).value());
        if (Match(TokKind::kComma)) {
          continue;
        }
        break;
      }
      if (!Match(TokKind::kRParen)) {
        return Err("expected ')' in VALUES");
      }
      if (row.size() != st.insert_columns.size()) {
        return Err("VALUES arity does not match column list");
      }
      st.insert_rows.push_back(std::move(row));
      if (Match(TokKind::kComma)) {
        continue;
      }
      break;
    }
    return st;
  }

  Result<SqlStatement> ParseSelect() {
    SqlStatement st;
    st.kind = SqlStmtKind::kSelect;
    while (true) {
      SelectItem item;
      if (Match(TokKind::kStar)) {
        item.star = true;
      } else if (CheckWord("count") || CheckWord("sum") || CheckWord("max") ||
                 CheckWord("min")) {
        std::string fn = Advance().word;
        if (!Match(TokKind::kLParen)) {
          return Err("expected '(' after aggregate");
        }
        if (fn == "count" && Match(TokKind::kStar)) {
          item.agg = SqlAgg::kCountStar;
        } else {
          Result<std::string> col = ExpectIdent("aggregate column");
          if (!col.ok()) {
            return Err(col.error());
          }
          item.column = col.value();
          item.agg = fn == "count" ? SqlAgg::kCount
                     : fn == "sum" ? SqlAgg::kSum
                     : fn == "max" ? SqlAgg::kMax
                                   : SqlAgg::kMin;
        }
        if (!Match(TokKind::kRParen)) {
          return Err("expected ')' after aggregate");
        }
      } else {
        Result<std::string> col = ExpectIdent("column name");
        if (!col.ok()) {
          return Err(col.error());
        }
        item.column = col.value();
      }
      if (MatchWord("as")) {
        Result<std::string> alias = ExpectIdent("alias");
        if (!alias.ok()) {
          return Err(alias.error());
        }
        item.alias = alias.value();
      }
      st.select_items.push_back(std::move(item));
      if (Match(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (!MatchWord("from")) {
      return Err("expected FROM");
    }
    Result<std::string> name = ExpectIdent("table name");
    if (!name.ok()) {
      return Err(name.error());
    }
    st.table = name.value();
    if (MatchWord("where")) {
      Result<SqlExprPtr> e = ParseExpr();
      if (!e.ok()) {
        return Err(e.error());
      }
      st.where = std::move(e).value();
    }
    if (MatchWord("order")) {
      if (!MatchWord("by")) {
        return Err("expected BY after ORDER");
      }
      while (true) {
        Result<std::string> col = ExpectIdent("ORDER BY column");
        if (!col.ok()) {
          return Err(col.error());
        }
        OrderBy ob;
        ob.column = col.value();
        if (MatchWord("desc")) {
          ob.descending = true;
        } else {
          MatchWord("asc");
        }
        st.order_by.push_back(std::move(ob));
        if (Match(TokKind::kComma)) {
          continue;
        }
        break;
      }
    }
    if (MatchWord("limit")) {
      if (!Check(TokKind::kInt)) {
        return Err("expected integer after LIMIT");
      }
      st.limit = Advance().int_val;
    }
    return st;
  }

  Result<SqlStatement> ParseUpdate() {
    SqlStatement st;
    st.kind = SqlStmtKind::kUpdate;
    Result<std::string> name = ExpectIdent("table name");
    if (!name.ok()) {
      return Err(name.error());
    }
    st.table = name.value();
    if (!MatchWord("set")) {
      return Err("expected SET");
    }
    while (true) {
      Result<std::string> col = ExpectIdent("column name");
      if (!col.ok()) {
        return Err(col.error());
      }
      if (!Match(TokKind::kEq)) {
        return Err("expected '=' in SET");
      }
      Result<SqlExprPtr> e = ParseExpr();
      if (!e.ok()) {
        return Err(e.error());
      }
      st.set_items.emplace_back(col.value(), std::move(e).value());
      if (Match(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (MatchWord("where")) {
      Result<SqlExprPtr> e = ParseExpr();
      if (!e.ok()) {
        return Err(e.error());
      }
      st.where = std::move(e).value();
    }
    return st;
  }

  Result<SqlStatement> ParseDelete() {
    if (!MatchWord("from")) {
      return Err("expected FROM after DELETE");
    }
    SqlStatement st;
    st.kind = SqlStmtKind::kDelete;
    Result<std::string> name = ExpectIdent("table name");
    if (!name.ok()) {
      return Err(name.error());
    }
    st.table = name.value();
    if (MatchWord("where")) {
      Result<SqlExprPtr> e = ParseExpr();
      if (!e.ok()) {
        return Err(e.error());
      }
      st.where = std::move(e).value();
    }
    return st;
  }

  // ---- Expressions ----

  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }

  Result<SqlExprPtr> ParseOr() {
    Result<SqlExprPtr> lhs = ParseAnd();
    if (!lhs.ok()) {
      return lhs;
    }
    while (MatchWord("or")) {
      Result<SqlExprPtr> rhs = ParseAnd();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kOr;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<SqlExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseAnd() {
    Result<SqlExprPtr> lhs = ParseNot();
    if (!lhs.ok()) {
      return lhs;
    }
    while (MatchWord("and")) {
      Result<SqlExprPtr> rhs = ParseNot();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kAnd;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<SqlExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseNot() {
    if (MatchWord("not")) {
      Result<SqlExprPtr> inner = ParseNot();
      if (!inner.ok()) {
        return inner;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kNot;
      e->a = std::move(inner).value();
      return Result<SqlExprPtr>(std::move(e));
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    Result<SqlExprPtr> lhs = ParseAdditive();
    if (!lhs.ok()) {
      return lhs;
    }
    SqlBinOp op;
    switch (Peek().kind) {
      case TokKind::kEq: op = SqlBinOp::kEq; break;
      case TokKind::kNe: op = SqlBinOp::kNe; break;
      case TokKind::kLt: op = SqlBinOp::kLt; break;
      case TokKind::kLe: op = SqlBinOp::kLe; break;
      case TokKind::kGt: op = SqlBinOp::kGt; break;
      case TokKind::kGe: op = SqlBinOp::kGe; break;
      default:
        return lhs;
    }
    Advance();
    Result<SqlExprPtr> rhs = ParseAdditive();
    if (!rhs.ok()) {
      return rhs;
    }
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kBinary;
    e->op = op;
    e->a = std::move(lhs).value();
    e->b = std::move(rhs).value();
    return Result<SqlExprPtr>(std::move(e));
  }

  Result<SqlExprPtr> ParseAdditive() {
    Result<SqlExprPtr> lhs = ParseMultiplicative();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokKind::kPlus) || Check(TokKind::kMinus)) {
      SqlBinOp op = Peek().kind == TokKind::kPlus ? SqlBinOp::kAdd : SqlBinOp::kSub;
      Advance();
      Result<SqlExprPtr> rhs = ParseMultiplicative();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kBinary;
      e->op = op;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<SqlExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseMultiplicative() {
    Result<SqlExprPtr> lhs = ParsePrimary();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokKind::kStar) || Check(TokKind::kSlash)) {
      SqlBinOp op = Peek().kind == TokKind::kStar ? SqlBinOp::kMul : SqlBinOp::kDiv;
      Advance();
      Result<SqlExprPtr> rhs = ParsePrimary();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kBinary;
      e->op = op;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<SqlExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParsePrimary() {
    auto lit = [](SqlValue v) {
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kLiteral;
      e->literal = std::move(v);
      return e;
    };
    if (Check(TokKind::kInt)) {
      return Result<SqlExprPtr>(lit(SqlValue::Int(Advance().int_val)));
    }
    if (Check(TokKind::kFloat)) {
      return Result<SqlExprPtr>(lit(SqlValue::Float(Advance().float_val)));
    }
    if (Check(TokKind::kString)) {
      return Result<SqlExprPtr>(lit(SqlValue::Text(Advance().raw)));
    }
    if (Check(TokKind::kMinus)) {
      Advance();
      if (Check(TokKind::kInt)) {
        return Result<SqlExprPtr>(lit(SqlValue::Int(-Advance().int_val)));
      }
      if (Check(TokKind::kFloat)) {
        return Result<SqlExprPtr>(lit(SqlValue::Float(-Advance().float_val)));
      }
      return Result<SqlExprPtr>::Error("sql parse: expected number after '-'");
    }
    if (Match(TokKind::kLParen)) {
      Result<SqlExprPtr> inner = ParseExpr();
      if (!inner.ok()) {
        return inner;
      }
      if (!Match(TokKind::kRParen)) {
        return Result<SqlExprPtr>::Error("sql parse: expected ')'");
      }
      return inner;
    }
    if (Check(TokKind::kWord)) {
      if (Peek().word == "null") {
        Advance();
        return Result<SqlExprPtr>(lit(SqlValue::Null()));
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kColumn;
      e->column = Advance().word;
      return Result<SqlExprPtr>(std::move(e));
    }
    return Result<SqlExprPtr>::Error("sql parse: unexpected token in expression");
  }

  std::vector<Tok> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlStatement> ParseSql(const std::string& sql) {
  SqlLexer lexer(sql);
  Result<std::vector<Tok>> toks = lexer.Run();
  if (!toks.ok()) {
    return toks.status();
  }
  return SqlParser(std::move(toks).value()).Run();
}

}  // namespace orochi
