#include "src/lang/lexer.h"

#include <cctype>
#include <cstdlib>

namespace orochi {

const char* TokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kEnd: return "<end>";
    case TokenKind::kInt: return "int";
    case TokenKind::kFloat: return "float";
    case TokenKind::kString: return "string";
    case TokenKind::kVariable: return "variable";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kAssign: return "=";
    case TokenKind::kPlusAssign: return "+=";
    case TokenKind::kMinusAssign: return "-=";
    case TokenKind::kConcatAssign: return ".=";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kDot: return ".";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kAndAnd: return "&&";
    case TokenKind::kOrOr: return "||";
    case TokenKind::kBang: return "!";
    case TokenKind::kQuestion: return "?";
    case TokenKind::kColon: return ":";
    case TokenKind::kArrow: return "=>";
    case TokenKind::kPlusPlus: return "++";
    case TokenKind::kMinusMinus: return "--";
  }
  return "?";
}

namespace {

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= src_.size()) {
        out.push_back({TokenKind::kEnd, "", 0, 0.0, line_});
        return out;
      }
      Result<Token> tok = Next();
      if (!tok.ok()) {
        return tok.status();
      }
      out.push_back(std::move(tok).value());
    }
  }

 private:
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      line_++;
    }
    return c;
  }
  bool Match(char c) {
    if (Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }

  Result<Token> Error(const std::string& msg) {
    return Result<Token>::Error("lex error at line " + std::to_string(line_) + ": " + msg);
  }

  void SkipSpaceAndComments() {
    while (pos_ < src_.size()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (pos_ < src_.size() && Peek() != '\n') {
          Advance();
        }
      } else if (c == '#') {
        while (pos_ < src_.size() && Peek() != '\n') {
          Advance();
        }
      } else if (c == '/' && Peek(1) == '*') {
        Advance();
        Advance();
        while (pos_ < src_.size() && !(Peek() == '*' && Peek(1) == '/')) {
          Advance();
        }
        if (pos_ < src_.size()) {
          Advance();
          Advance();
        }
      } else {
        return;
      }
    }
  }

  Token Simple(TokenKind k) { return {k, "", 0, 0.0, line_}; }

  Result<Token> Next() {
    int start_line = line_;
    char c = Advance();
    switch (c) {
      case '(': return Simple(TokenKind::kLParen);
      case ')': return Simple(TokenKind::kRParen);
      case '{': return Simple(TokenKind::kLBrace);
      case '}': return Simple(TokenKind::kRBrace);
      case '[': return Simple(TokenKind::kLBracket);
      case ']': return Simple(TokenKind::kRBracket);
      case ',': return Simple(TokenKind::kComma);
      case ';': return Simple(TokenKind::kSemicolon);
      case '?': return Simple(TokenKind::kQuestion);
      case ':': return Simple(TokenKind::kColon);
      case '%': return Simple(TokenKind::kPercent);
      case '*': return Simple(TokenKind::kStar);
      case '/': return Simple(TokenKind::kSlash);
      case '+':
        if (Match('+')) return Simple(TokenKind::kPlusPlus);
        if (Match('=')) return Simple(TokenKind::kPlusAssign);
        return Simple(TokenKind::kPlus);
      case '-':
        if (Match('-')) return Simple(TokenKind::kMinusMinus);
        if (Match('=')) return Simple(TokenKind::kMinusAssign);
        return Simple(TokenKind::kMinus);
      case '.':
        if (Match('=')) return Simple(TokenKind::kConcatAssign);
        return Simple(TokenKind::kDot);
      case '=':
        if (Match('=')) return Simple(TokenKind::kEq);
        if (Match('>')) return Simple(TokenKind::kArrow);
        return Simple(TokenKind::kAssign);
      case '!':
        if (Match('=')) return Simple(TokenKind::kNe);
        return Simple(TokenKind::kBang);
      case '<':
        if (Match('=')) return Simple(TokenKind::kLe);
        return Simple(TokenKind::kLt);
      case '>':
        if (Match('=')) return Simple(TokenKind::kGe);
        return Simple(TokenKind::kGt);
      case '&':
        if (Match('&')) return Simple(TokenKind::kAndAnd);
        return Error("expected '&&'");
      case '|':
        if (Match('|')) return Simple(TokenKind::kOrOr);
        return Error("expected '||'");
      case '$': {
        std::string name;
        while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_') {
          name += Advance();
        }
        if (name.empty()) {
          return Error("expected variable name after '$'");
        }
        return Token{TokenKind::kVariable, std::move(name), 0, 0.0, start_line};
      }
      case '"':
      case '\'': {
        char quote = c;
        std::string body;
        while (true) {
          if (pos_ >= src_.size()) {
            return Error("unterminated string");
          }
          char d = Advance();
          if (d == quote) {
            break;
          }
          if (d == '\\' && quote == '"') {
            char e = Advance();
            switch (e) {
              case 'n': body += '\n'; break;
              case 't': body += '\t'; break;
              case 'r': body += '\r'; break;
              case '\\': body += '\\'; break;
              case '"': body += '"'; break;
              case '$': body += '$'; break;
              case '0': body += '\0'; break;
              default:
                body += '\\';
                body += e;
                break;
            }
          } else if (d == '\\' && quote == '\'') {
            char e = Advance();
            if (e == '\'' || e == '\\') {
              body += e;
            } else {
              body += '\\';
              body += e;
            }
          } else {
            body += d;
          }
        }
        return Token{TokenKind::kString, std::move(body), 0, 0.0, start_line};
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string digits(1, c);
      bool is_float = false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits += Advance();
      }
      if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
        is_float = true;
        digits += Advance();
        while (std::isdigit(static_cast<unsigned char>(Peek()))) {
          digits += Advance();
        }
      }
      if (Peek() == 'e' || Peek() == 'E') {
        size_t save = pos_;
        std::string expo(1, Advance());
        if (Peek() == '+' || Peek() == '-') {
          expo += Advance();
        }
        if (std::isdigit(static_cast<unsigned char>(Peek()))) {
          is_float = true;
          while (std::isdigit(static_cast<unsigned char>(Peek()))) {
            expo += Advance();
          }
          digits += expo;
        } else {
          pos_ = save;  // Not an exponent; back off.
        }
      }
      if (is_float) {
        return Token{TokenKind::kFloat, "", 0, std::strtod(digits.c_str(), nullptr), start_line};
      }
      errno = 0;
      long long v = std::strtoll(digits.c_str(), nullptr, 10);
      if (errno != 0) {
        return Error("integer literal out of range");
      }
      return Token{TokenKind::kInt, "", v, 0.0, start_line};
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name(1, c);
      while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_') {
        name += Advance();
      }
      return Token{TokenKind::kIdentifier, std::move(name), 0, 0.0, start_line};
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& source) { return Lexer(source).Run(); }

}  // namespace orochi
