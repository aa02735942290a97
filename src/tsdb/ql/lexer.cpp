#include "tsdb/ql/lexer.hpp"

#include <cctype>

namespace sgxo::tsdb::ql {

const char* to_string(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kQuotedIdent: return "quoted identifier";
    case TokenKind::kString: return "string";
    case TokenKind::kNumber: return "number";
    case TokenKind::kDuration: return "duration";
    case TokenKind::kParam: return "parameter";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNeq: return "'<>'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLte: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGte: return "'>='";
    case TokenKind::kEnd: return "end of query";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& message, std::size_t offset) {
  throw QueryError{"query error at offset " + std::to_string(offset) + ": " +
                   message};
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return is_ident_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/// Duration unit suffix → microseconds multiplier. InfluxQL units.
std::int64_t unit_multiplier(const std::string& unit, std::size_t offset) {
  if (unit == "u" || unit == "us") return 1;
  if (unit == "ms") return 1'000;
  if (unit == "s") return 1'000'000;
  if (unit == "m") return 60LL * 1'000'000;
  if (unit == "h") return 3600LL * 1'000'000;
  if (unit == "d") return 24LL * 3600 * 1'000'000;
  if (unit == "w") return 7LL * 24 * 3600 * 1'000'000;
  fail("unknown duration unit '" + unit + "'", offset);
}

std::uint64_t g_parse_work = 0;

}  // namespace

std::uint64_t parse_work_count() { return g_parse_work; }

namespace detail {
void count_parse_work() { ++g_parse_work; }
}  // namespace detail

std::vector<Token> lex(const std::string& query) {
  detail::count_parse_work();
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = query.size();

  const auto push = [&](TokenKind kind, std::string text, std::size_t offset) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.offset = offset;
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    const char c = query[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    switch (c) {
      case '(': push(TokenKind::kLParen, "(", start); ++i; continue;
      case ')': push(TokenKind::kRParen, ")", start); ++i; continue;
      case ',': push(TokenKind::kComma, ",", start); ++i; continue;
      case '*': push(TokenKind::kStar, "*", start); ++i; continue;
      case '+': push(TokenKind::kPlus, "+", start); ++i; continue;
      case '-': push(TokenKind::kMinus, "-", start); ++i; continue;
      case '=': push(TokenKind::kEq, "=", start); ++i; continue;
      case '!':
        if (i + 1 < n && query[i + 1] == '=') {
          push(TokenKind::kNeq, "!=", start);
          i += 2;
          continue;
        }
        fail("unexpected '!'", start);
      case '<':
        if (i + 1 < n && query[i + 1] == '>') {
          push(TokenKind::kNeq, "<>", start);
          i += 2;
        } else if (i + 1 < n && query[i + 1] == '=') {
          push(TokenKind::kLte, "<=", start);
          i += 2;
        } else {
          push(TokenKind::kLt, "<", start);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < n && query[i + 1] == '=') {
          push(TokenKind::kGte, ">=", start);
          i += 2;
        } else {
          push(TokenKind::kGt, ">", start);
          ++i;
        }
        continue;
      case '"': {
        ++i;
        std::string text;
        while (i < n && query[i] != '"') {
          text += query[i];
          ++i;
        }
        if (i >= n) fail("unterminated quoted identifier", start);
        ++i;  // closing quote
        push(TokenKind::kQuotedIdent, std::move(text), start);
        continue;
      }
      case '\'': {
        ++i;
        std::string text;
        while (i < n && query[i] != '\'') {
          text += query[i];
          ++i;
        }
        if (i >= n) fail("unterminated string literal", start);
        ++i;
        push(TokenKind::kString, std::move(text), start);
        continue;
      }
      case '$': {
        ++i;
        std::string name;
        while (i < n && is_ident_char(query[i])) {
          name += query[i];
          ++i;
        }
        if (name.empty()) fail("expected parameter name after '$'", start);
        push(TokenKind::kParam, std::move(name), start);
        continue;
      }
      default:
        break;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::string digits;
      bool has_dot = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(query[i])) != 0 ||
                       (!has_dot && query[i] == '.'))) {
        has_dot = has_dot || query[i] == '.';
        digits += query[i];
        ++i;
      }
      // Duration suffix?
      std::string unit;
      while (i < n && std::isalpha(static_cast<unsigned char>(query[i])) != 0) {
        unit += query[i];
        ++i;
      }
      Token t;
      t.offset = start;
      if (unit.empty()) {
        t.kind = TokenKind::kNumber;
        t.text = digits;
        t.number = std::stod(digits);
      } else {
        if (has_dot) fail("fractional durations are not supported", start);
        t.kind = TokenKind::kDuration;
        t.text = digits + unit;
        t.duration_us = std::stoll(digits) * unit_multiplier(unit, start);
      }
      tokens.push_back(std::move(t));
      continue;
    }

    if (is_ident_start(c)) {
      std::string ident;
      while (i < n && is_ident_char(query[i])) {
        ident += query[i];
        ++i;
      }
      push(TokenKind::kIdentifier, std::move(ident), start);
      continue;
    }

    fail(std::string("unexpected character '") + c + "'", start);
  }

  push(TokenKind::kEnd, "", n);
  return tokens;
}

}  // namespace sgxo::tsdb::ql
