#include "src/lang/parser.h"

#include <utility>

#include "src/lang/lexer.h"

namespace orochi {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<ScriptAst> Run() {
    ScriptAst script;
    while (!AtEnd()) {
      if (CheckIdent("function")) {
        Result<FunctionDecl> fn = ParseFunction();
        if (!fn.ok()) {
          return Err(fn.error());
        }
        script.functions.push_back(std::move(fn).value());
      } else {
        Result<StmtPtr> st = ParseStatement();
        if (!st.ok()) {
          return Err(st.error());
        }
        script.top_level.push_back(std::move(st).value());
      }
    }
    return script;
  }

 private:
  Result<ScriptAst> Err(const std::string& msg) { return Result<ScriptAst>::Error(msg); }

  template <typename T>
  Result<T> Error(const std::string& msg) {
    return Result<T>::Error("parse error at line " + std::to_string(Peek().line) + ": " + msg);
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool Check(TokenKind k) const { return Peek().kind == k; }
  bool CheckIdent(const char* name) const {
    return Peek().kind == TokenKind::kIdentifier && Peek().text == name;
  }
  bool Match(TokenKind k) {
    if (Check(k)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchIdent(const char* name) {
    if (CheckIdent(name)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(TokenKind k, const char* what) {
    if (!Match(k)) {
      return Status::Error("parse error at line " + std::to_string(Peek().line) + ": expected " +
                           std::string(what) + ", got '" + TokenKindName(Peek().kind) + "'");
    }
    return Status::Ok();
  }

  static ExprPtr NewExpr(ExprKind kind, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }
  static StmtPtr NewStmt(StmtKind kind, int line) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = line;
    return s;
  }

  Result<FunctionDecl> ParseFunction() {
    Advance();  // 'function'
    if (!Check(TokenKind::kIdentifier)) {
      return Error<FunctionDecl>("expected function name");
    }
    FunctionDecl fn;
    fn.line = Peek().line;
    fn.name = Advance().text;
    if (Status s = Expect(TokenKind::kLParen, "'('"); !s.ok()) {
      return s;
    }
    if (!Check(TokenKind::kRParen)) {
      while (true) {
        if (!Check(TokenKind::kVariable)) {
          return Error<FunctionDecl>("expected parameter variable");
        }
        fn.params.push_back(Advance().text);
        if (!Match(TokenKind::kComma)) {
          break;
        }
      }
    }
    if (Status s = Expect(TokenKind::kRParen, "')'"); !s.ok()) {
      return s;
    }
    if (Status s = Expect(TokenKind::kLBrace, "'{'"); !s.ok()) {
      return s;
    }
    while (!Check(TokenKind::kRBrace)) {
      if (AtEnd()) {
        return Error<FunctionDecl>("unterminated function body");
      }
      Result<StmtPtr> st = ParseStatement();
      if (!st.ok()) {
        return st.status();
      }
      fn.body.push_back(std::move(st).value());
    }
    Advance();  // '}'
    return fn;
  }

  Result<StmtPtr> ParseStatement() {
    int line = Peek().line;
    if (Match(TokenKind::kSemicolon)) {
      auto s = NewStmt(StmtKind::kBlock, line);  // Empty statement.
      return Result<StmtPtr>(std::move(s));
    }
    if (Check(TokenKind::kLBrace)) {
      return ParseBlock();
    }
    if (CheckIdent("if")) {
      return ParseIf();
    }
    if (CheckIdent("while")) {
      return ParseWhile();
    }
    if (CheckIdent("for")) {
      return ParseFor();
    }
    if (CheckIdent("foreach")) {
      return ParseForeach();
    }
    if (CheckIdent("echo")) {
      return ParseEcho();
    }
    if (CheckIdent("return")) {
      Advance();
      auto s = NewStmt(StmtKind::kReturn, line);
      if (!Check(TokenKind::kSemicolon)) {
        Result<ExprPtr> e = ParseExpr();
        if (!e.ok()) {
          return e.status();
        }
        s->expr = std::move(e).value();
      }
      if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
        return st;
      }
      return Result<StmtPtr>(std::move(s));
    }
    if (CheckIdent("break")) {
      Advance();
      if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
        return st;
      }
      return Result<StmtPtr>(NewStmt(StmtKind::kBreak, line));
    }
    if (CheckIdent("continue")) {
      Advance();
      if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
        return st;
      }
      return Result<StmtPtr>(NewStmt(StmtKind::kContinue, line));
    }
    // Expression statement.
    Result<ExprPtr> e = ParseExpr();
    if (!e.ok()) {
      return e.status();
    }
    if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
      return st;
    }
    auto s = NewStmt(StmtKind::kExpr, line);
    s->expr = std::move(e).value();
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseBlock() {
    int line = Peek().line;
    Advance();  // '{'
    auto s = NewStmt(StmtKind::kBlock, line);
    while (!Check(TokenKind::kRBrace)) {
      if (AtEnd()) {
        return Error<StmtPtr>("unterminated block");
      }
      Result<StmtPtr> st = ParseStatement();
      if (!st.ok()) {
        return st;
      }
      s->block.push_back(std::move(st).value());
    }
    Advance();
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseIf() {
    int line = Peek().line;
    Advance();  // 'if'
    if (Status st = Expect(TokenKind::kLParen, "'('"); !st.ok()) {
      return st;
    }
    Result<ExprPtr> cond = ParseExpr();
    if (!cond.ok()) {
      return cond.status();
    }
    if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
      return st;
    }
    Result<StmtPtr> body = ParseStatement();
    if (!body.ok()) {
      return body;
    }
    auto s = NewStmt(StmtKind::kIf, line);
    s->expr = std::move(cond).value();
    s->body = std::move(body).value();
    if (CheckIdent("elseif")) {
      // Treat "elseif (...)" as "else if".
      Result<StmtPtr> rest = ParseIf();  // ParseIf consumes the 'elseif' as its 'if'.
      if (!rest.ok()) {
        return rest;
      }
      s->else_body = std::move(rest).value();
    } else if (MatchIdent("else")) {
      Result<StmtPtr> rest = ParseStatement();
      if (!rest.ok()) {
        return rest;
      }
      s->else_body = std::move(rest).value();
    }
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseWhile() {
    int line = Peek().line;
    Advance();
    if (Status st = Expect(TokenKind::kLParen, "'('"); !st.ok()) {
      return st;
    }
    Result<ExprPtr> cond = ParseExpr();
    if (!cond.ok()) {
      return cond.status();
    }
    if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
      return st;
    }
    Result<StmtPtr> body = ParseStatement();
    if (!body.ok()) {
      return body;
    }
    auto s = NewStmt(StmtKind::kWhile, line);
    s->expr = std::move(cond).value();
    s->body = std::move(body).value();
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseFor() {
    int line = Peek().line;
    Advance();
    if (Status st = Expect(TokenKind::kLParen, "'('"); !st.ok()) {
      return st;
    }
    auto s = NewStmt(StmtKind::kFor, line);
    if (!Check(TokenKind::kSemicolon)) {
      Result<ExprPtr> init = ParseExpr();
      if (!init.ok()) {
        return init.status();
      }
      s->init = std::move(init).value();
    }
    if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
      return st;
    }
    if (!Check(TokenKind::kSemicolon)) {
      Result<ExprPtr> cond = ParseExpr();
      if (!cond.ok()) {
        return cond.status();
      }
      s->expr = std::move(cond).value();
    }
    if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
      return st;
    }
    if (!Check(TokenKind::kRParen)) {
      Result<ExprPtr> step = ParseExpr();
      if (!step.ok()) {
        return step.status();
      }
      s->step = std::move(step).value();
    }
    if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
      return st;
    }
    Result<StmtPtr> body = ParseStatement();
    if (!body.ok()) {
      return body;
    }
    s->body = std::move(body).value();
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseForeach() {
    int line = Peek().line;
    Advance();
    if (Status st = Expect(TokenKind::kLParen, "'('"); !st.ok()) {
      return st;
    }
    Result<ExprPtr> subject = ParseExpr();
    if (!subject.ok()) {
      return subject.status();
    }
    if (!MatchIdent("as")) {
      return Error<StmtPtr>("expected 'as' in foreach");
    }
    if (!Check(TokenKind::kVariable)) {
      return Error<StmtPtr>("expected variable in foreach");
    }
    std::string first = Advance().text;
    auto s = NewStmt(StmtKind::kForeach, line);
    s->expr = std::move(subject).value();
    if (Match(TokenKind::kArrow)) {
      if (!Check(TokenKind::kVariable)) {
        return Error<StmtPtr>("expected value variable in foreach");
      }
      s->key_var = first;
      s->value_var = Advance().text;
    } else {
      s->value_var = first;
    }
    if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
      return st;
    }
    Result<StmtPtr> body = ParseStatement();
    if (!body.ok()) {
      return body;
    }
    s->body = std::move(body).value();
    return Result<StmtPtr>(std::move(s));
  }

  Result<StmtPtr> ParseEcho() {
    int line = Peek().line;
    Advance();
    auto s = NewStmt(StmtKind::kEcho, line);
    while (true) {
      Result<ExprPtr> e = ParseExpr();
      if (!e.ok()) {
        return e.status();
      }
      s->echoes.push_back(std::move(e).value());
      if (!Match(TokenKind::kComma)) {
        break;
      }
    }
    if (Status st = Expect(TokenKind::kSemicolon, "';'"); !st.ok()) {
      return st;
    }
    return Result<StmtPtr>(std::move(s));
  }

  // ---- Expressions ----

  Result<ExprPtr> ParseExpr() { return ParseAssignment(); }

  // assignment := $var index* ('='|'+='|'-='|'.=') assignment | ternary
  Result<ExprPtr> ParseAssignment() {
    // Lookahead: a variable followed by an index path and an assignment operator.
    if (Check(TokenKind::kVariable)) {
      size_t save = pos_;
      int line = Peek().line;
      std::string var = Advance().text;
      std::vector<ExprPtr> path;
      bool path_ok = true;
      while (Check(TokenKind::kLBracket)) {
        Advance();
        if (Match(TokenKind::kRBracket)) {
          path.push_back(nullptr);  // Append form: $a[] = v.
          continue;
        }
        Result<ExprPtr> idx = ParseExpr();
        if (!idx.ok()) {
          path_ok = false;
          break;
        }
        path.push_back(std::move(idx).value());
        if (!Match(TokenKind::kRBracket)) {
          path_ok = false;
          break;
        }
      }
      if (path_ok &&
          (Check(TokenKind::kAssign) || Check(TokenKind::kPlusAssign) ||
           Check(TokenKind::kMinusAssign) || Check(TokenKind::kConcatAssign))) {
        TokenKind op = Advance().kind;
        Result<ExprPtr> rhs = ParseAssignment();
        if (!rhs.ok()) {
          return rhs;
        }
        auto e = NewExpr(ExprKind::kAssign, line);
        e->str_val = std::move(var);
        e->list = std::move(path);
        e->b = std::move(rhs).value();
        switch (op) {
          case TokenKind::kAssign: e->assign_op = AssignOp::kPlain; break;
          case TokenKind::kPlusAssign: e->assign_op = AssignOp::kAddAssign; break;
          case TokenKind::kMinusAssign: e->assign_op = AssignOp::kSubAssign; break;
          default: e->assign_op = AssignOp::kConcatAssign; break;
        }
        return Result<ExprPtr>(std::move(e));
      }
      pos_ = save;  // Not an assignment; re-parse as an ordinary expression.
    }
    return ParseTernary();
  }

  Result<ExprPtr> ParseTernary() {
    Result<ExprPtr> cond = ParseOr();
    if (!cond.ok()) {
      return cond;
    }
    if (!Match(TokenKind::kQuestion)) {
      return cond;
    }
    int line = Peek().line;
    Result<ExprPtr> then_e = ParseExpr();
    if (!then_e.ok()) {
      return then_e;
    }
    if (Status st = Expect(TokenKind::kColon, "':'"); !st.ok()) {
      return st;
    }
    Result<ExprPtr> else_e = ParseExpr();
    if (!else_e.ok()) {
      return else_e;
    }
    auto e = NewExpr(ExprKind::kTernary, line);
    e->a = std::move(cond).value();
    e->b = std::move(then_e).value();
    e->c = std::move(else_e).value();
    return Result<ExprPtr>(std::move(e));
  }

  Result<ExprPtr> ParseOr() {
    Result<ExprPtr> lhs = ParseAnd();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokenKind::kOrOr)) {
      int line = Peek().line;
      Advance();
      Result<ExprPtr> rhs = ParseAnd();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = NewExpr(ExprKind::kLogicalOr, line);
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<ExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    Result<ExprPtr> lhs = ParseComparison();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokenKind::kAndAnd)) {
      int line = Peek().line;
      Advance();
      Result<ExprPtr> rhs = ParseComparison();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = NewExpr(ExprKind::kLogicalAnd, line);
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<ExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    Result<ExprPtr> lhs = ParseAdditive();
    if (!lhs.ok()) {
      return lhs;
    }
    BinOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = BinOp::kEq; break;
      case TokenKind::kNe: op = BinOp::kNe; break;
      case TokenKind::kLt: op = BinOp::kLt; break;
      case TokenKind::kLe: op = BinOp::kLe; break;
      case TokenKind::kGt: op = BinOp::kGt; break;
      case TokenKind::kGe: op = BinOp::kGe; break;
      default:
        return lhs;
    }
    int line = Peek().line;
    Advance();
    Result<ExprPtr> rhs = ParseAdditive();
    if (!rhs.ok()) {
      return rhs;
    }
    auto e = NewExpr(ExprKind::kBinary, line);
    e->bin_op = op;
    e->a = std::move(lhs).value();
    e->b = std::move(rhs).value();
    return Result<ExprPtr>(std::move(e));
  }

  Result<ExprPtr> ParseAdditive() {
    Result<ExprPtr> lhs = ParseMultiplicative();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus) || Check(TokenKind::kDot)) {
      BinOp op = Peek().kind == TokenKind::kPlus  ? BinOp::kAdd
                 : Peek().kind == TokenKind::kMinus ? BinOp::kSub
                                                    : BinOp::kConcat;
      int line = Peek().line;
      Advance();
      Result<ExprPtr> rhs = ParseMultiplicative();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = NewExpr(ExprKind::kBinary, line);
      e->bin_op = op;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<ExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    Result<ExprPtr> lhs = ParseUnary();
    if (!lhs.ok()) {
      return lhs;
    }
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) || Check(TokenKind::kPercent)) {
      BinOp op = Peek().kind == TokenKind::kStar    ? BinOp::kMul
                 : Peek().kind == TokenKind::kSlash ? BinOp::kDiv
                                                    : BinOp::kMod;
      int line = Peek().line;
      Advance();
      Result<ExprPtr> rhs = ParseUnary();
      if (!rhs.ok()) {
        return rhs;
      }
      auto e = NewExpr(ExprKind::kBinary, line);
      e->bin_op = op;
      e->a = std::move(lhs).value();
      e->b = std::move(rhs).value();
      lhs = Result<ExprPtr>(std::move(e));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    int line = Peek().line;
    if (Match(TokenKind::kBang)) {
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) {
        return operand;
      }
      auto e = NewExpr(ExprKind::kUnary, line);
      e->un_op = UnOp::kNot;
      e->a = std::move(operand).value();
      return Result<ExprPtr>(std::move(e));
    }
    if (Match(TokenKind::kMinus)) {
      Result<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) {
        return operand;
      }
      auto e = NewExpr(ExprKind::kUnary, line);
      e->un_op = UnOp::kNeg;
      e->a = std::move(operand).value();
      return Result<ExprPtr>(std::move(e));
    }
    if (Check(TokenKind::kPlusPlus) || Check(TokenKind::kMinusMinus)) {
      bool inc = Advance().kind == TokenKind::kPlusPlus;
      if (!Check(TokenKind::kVariable)) {
        return Error<ExprPtr>("expected variable after prefix ++/--");
      }
      auto e = NewExpr(ExprKind::kIncDec, line);
      e->str_val = Advance().text;
      e->is_prefix = true;
      e->is_increment = inc;
      return Result<ExprPtr>(std::move(e));
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    Result<ExprPtr> base = ParsePrimary();
    if (!base.ok()) {
      return base;
    }
    while (true) {
      if (Check(TokenKind::kLBracket)) {
        int line = Peek().line;
        Advance();
        Result<ExprPtr> idx = ParseExpr();
        if (!idx.ok()) {
          return idx;
        }
        if (Status st = Expect(TokenKind::kRBracket, "']'"); !st.ok()) {
          return st;
        }
        auto e = NewExpr(ExprKind::kIndex, line);
        e->a = std::move(base).value();
        e->b = std::move(idx).value();
        base = Result<ExprPtr>(std::move(e));
      } else if ((Check(TokenKind::kPlusPlus) || Check(TokenKind::kMinusMinus)) &&
                 base.value()->kind == ExprKind::kVar) {
        int line = Peek().line;
        bool inc = Advance().kind == TokenKind::kPlusPlus;
        auto e = NewExpr(ExprKind::kIncDec, line);
        e->str_val = base.value()->str_val;
        e->is_prefix = false;
        e->is_increment = inc;
        base = Result<ExprPtr>(std::move(e));
      } else {
        return base;
      }
    }
  }

  Result<ExprPtr> ParsePrimary() {
    int line = Peek().line;
    if (Check(TokenKind::kInt)) {
      auto e = NewExpr(ExprKind::kIntLit, line);
      e->int_val = Advance().int_val;
      return Result<ExprPtr>(std::move(e));
    }
    if (Check(TokenKind::kFloat)) {
      auto e = NewExpr(ExprKind::kFloatLit, line);
      e->float_val = Advance().float_val;
      return Result<ExprPtr>(std::move(e));
    }
    if (Check(TokenKind::kString)) {
      auto e = NewExpr(ExprKind::kStringLit, line);
      e->str_val = Advance().text;
      return Result<ExprPtr>(std::move(e));
    }
    if (Check(TokenKind::kVariable)) {
      auto e = NewExpr(ExprKind::kVar, line);
      e->str_val = Advance().text;
      return Result<ExprPtr>(std::move(e));
    }
    if (Match(TokenKind::kLParen)) {
      Result<ExprPtr> inner = ParseExpr();
      if (!inner.ok()) {
        return inner;
      }
      if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
        return st;
      }
      return inner;
    }
    if (Check(TokenKind::kLBracket)) {
      return ParseArrayLiteral(TokenKind::kRBracket);
    }
    if (Check(TokenKind::kIdentifier)) {
      const std::string& name = Peek().text;
      if (name == "true") {
        Advance();
        auto e = NewExpr(ExprKind::kBoolLit, line);
        e->bool_val = true;
        return Result<ExprPtr>(std::move(e));
      }
      if (name == "false") {
        Advance();
        auto e = NewExpr(ExprKind::kBoolLit, line);
        e->bool_val = false;
        return Result<ExprPtr>(std::move(e));
      }
      if (name == "null") {
        Advance();
        return Result<ExprPtr>(NewExpr(ExprKind::kNullLit, line));
      }
      if (name == "array" && Peek(1).kind == TokenKind::kLParen) {
        Advance();
        Advance();
        return ParseArrayLiteral(TokenKind::kRParen);
      }
      // Function / builtin call.
      if (Peek(1).kind == TokenKind::kLParen) {
        std::string fname = Advance().text;
        Advance();  // '('
        auto e = NewExpr(ExprKind::kCall, line);
        e->str_val = std::move(fname);
        if (!Check(TokenKind::kRParen)) {
          while (true) {
            Result<ExprPtr> arg = ParseExpr();
            if (!arg.ok()) {
              return arg;
            }
            e->list.push_back(std::move(arg).value());
            if (!Match(TokenKind::kComma)) {
              break;
            }
          }
        }
        if (Status st = Expect(TokenKind::kRParen, "')'"); !st.ok()) {
          return st;
        }
        return Result<ExprPtr>(std::move(e));
      }
      return Error<ExprPtr>("unexpected identifier '" + name + "'");
    }
    return Error<ExprPtr>(std::string("unexpected token '") + TokenKindName(Peek().kind) + "'");
  }

  // Parses elements of `[...]` or `array(...)`; the opener is already consumed (for `[`,
  // the caller consumed nothing yet — handle both by matching the opener here if present).
  Result<ExprPtr> ParseArrayLiteral(TokenKind closer) {
    int line = Peek().line;
    if (closer == TokenKind::kRBracket) {
      Advance();  // '['
    }
    auto e = NewExpr(ExprKind::kArrayLit, line);
    if (!Check(closer)) {
      while (true) {
        Result<ExprPtr> first = ParseExpr();
        if (!first.ok()) {
          return first;
        }
        if (Match(TokenKind::kArrow)) {
          Result<ExprPtr> val = ParseExpr();
          if (!val.ok()) {
            return val;
          }
          e->keys.push_back(std::move(first).value());
          e->list.push_back(std::move(val).value());
        } else {
          e->keys.push_back(nullptr);
          e->list.push_back(std::move(first).value());
        }
        if (!Match(TokenKind::kComma)) {
          break;
        }
        if (Check(closer)) {
          break;  // Trailing comma.
        }
      }
    }
    if (Status st = Expect(closer, closer == TokenKind::kRBracket ? "']'" : "')'"); !st.ok()) {
      return st;
    }
    return Result<ExprPtr>(std::move(e));
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<ScriptAst> ParseScript(const std::string& source) {
  Result<std::vector<Token>> toks = Tokenize(source);
  if (!toks.ok()) {
    return toks.status();
  }
  return Parser(std::move(toks).value()).Run();
}

}  // namespace orochi
