#include "obs/json.h"

#include <cctype>
#include <cstdio>

namespace overhaul::obs::json {

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quote(std::string_view raw) {
  const std::string body = escape(raw);
  std::string out;
  out.reserve(body.size() + 2);
  out.append(1, '"').append(body).append(1, '"');
  return out;
}

namespace {

// Recursive-descent validator. Kept deliberately strict: trailing commas,
// bare NaN/Infinity, unescaped control characters, and trailing garbage all
// fail — a document that passes here parses in any real JSON consumer
// (chrome://tracing included).
class Validator {
 public:
  explicit Validator(std::string_view text) : text_(text) {}

  bool run(std::string* error) {
    skip_ws();
    if (!value()) return fail(error);
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing garbage";
      return fail(error);
    }
    return true;
  }

 private:
  bool fail(std::string* error) const {
    if (error != nullptr)
      *error = (error_.empty() ? std::string("invalid JSON") : error_) +
               " at offset " + std::to_string(pos_);
    return false;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r'))
      ++pos_;
  }

  bool expect(char c) {
    if (at_end() || peek() != c) {
      error_ = std::string("expected '") + c + "'";
      return false;
    }
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      error_ = "invalid literal";
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool value() {
    if (++depth_ > kMaxDepth) {
      error_ = "nesting too deep";
      return false;
    }
    bool ok = false;
    if (at_end()) {
      error_ = "unexpected end of input";
    } else {
      switch (peek()) {
        case '{': ok = object(); break;
        case '[': ok = array(); break;
        case '"': ok = string(); break;
        case 't': ok = literal("true"); break;
        case 'f': ok = literal("false"); break;
        case 'n': ok = literal("null"); break;
        default: ok = number(); break;
      }
    }
    --depth_;
    return ok;
  }

  bool object() {
    if (!expect('{')) return false;
    skip_ws();
    if (!at_end() && peek() == '}') return expect('}');
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (!at_end() && peek() == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  bool array() {
    if (!expect('[')) return false;
    skip_ws();
    if (!at_end() && peek() == ']') return expect(']');
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (!at_end() && peek() == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool string() {
    if (!expect('"')) return false;
    while (true) {
      if (at_end()) {
        error_ = "unterminated string";
        return false;
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) {
        error_ = "raw control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (at_end()) {
          error_ = "dangling escape";
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (at_end() || std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])) == 0) {
              error_ = "bad \\u escape";
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          error_ = "bad escape";
          return false;
        }
      }
      ++pos_;
    }
  }

  bool digits() {
    if (at_end() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      error_ = "expected digit";
      return false;
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
      ++pos_;
    return true;
  }

  bool number() {
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end()) {
      error_ = "bad number";
      return false;
    }
    if (peek() == '0') {
      ++pos_;  // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool validate(std::string_view text, std::string* error) {
  return Validator(text).run(error);
}

}  // namespace overhaul::obs::json
