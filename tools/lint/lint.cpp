#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "ir.h"

namespace overhaul::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators we must not split: `=` vs `==` decides whether
// an `interaction_ts` token is a write (R3), and `::` glues qualified names.
const char* kPunct3[] = {"<<=", ">>=", "->*", "..."};
const char* kPunct2[] = {"::", "->", "==", "!=", "<=", ">=", "&&", "||",
                         "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=",
                         "|=", "^=", "++", "--"};

// Raw-string-literal prefixes, longest first (u8R before uR/UR/LR/R).
const char* kRawPrefixes[] = {"u8R", "uR", "UR", "LR", "R"};

}  // namespace

std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  // Raw string literal R"delim( ... )delim" (any standard prefix). `plen` is
  // the prefix length including the R. Returns false when the text at `i`
  // is not a well-formed raw-string opener.
  auto try_raw_string = [&](std::size_t plen) -> bool {
    std::size_t j = i + plen + 1;  // past prefix and opening quote
    std::string delim;
    while (j < n && src[j] != '(') {
      const char d = src[j];
      // The delimiter may not contain spaces, parens, backslash, or newline
      // (and is at most 16 chars); anything else is not a raw string.
      if (d == ')' || d == '\\' || d == '"' || std::isspace(
              static_cast<unsigned char>(d)) || delim.size() >= 16)
        return false;
      delim += d;
      ++j;
    }
    if (j >= n) return false;
    const std::string closer = ")" + delim + "\"";
    const std::size_t end = src.find(closer, j);
    const std::size_t stop = end == std::string::npos ? n : end + closer.size();
    const int start_line = line;
    for (std::size_t k = i; k < stop; ++k)
      if (src[k] == '\n') ++line;
    out.push_back({TokKind::kString, "<raw-string>", start_line});
    i = stop;
    return true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Preprocessor directive: skip the logical line (with continuations).
    // Conditional-compilation tricks are out of scope for the lint.
    if (c == '#') {
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    // Raw string literal, with or without an encoding prefix. Checked before
    // plain identifiers so `LR"(...)"` does not tokenize as ident + string.
    if (is_ident_start(c)) {
      bool raw = false;
      for (const char* p : kRawPrefixes) {
        const std::size_t plen = std::char_traits<char>::length(p);
        if (src.compare(i, plen, p) == 0 && i + plen < n &&
            src[i + plen] == '"') {
          // Only a raw string if the prefix is not glued to a longer
          // identifier (`FooR"x"` is ident FooR then a string).
          if (i > 0 && is_ident_char(src[i - 1])) break;
          if (try_raw_string(plen)) {
            raw = true;
            break;
          }
        }
      }
      if (raw) continue;
    }
    // String / char literal: contents are opaque.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        else if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.push_back({TokKind::kString, quote == '"' ? "<string>" : "<char>",
                     start_line});
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(src[j])) ++j;
      out.push_back({TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (is_ident_char(src[j]) || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E'))))
        ++j;
      if (j < n && src[j] == '.') {  // floating point
        ++j;
        while (j < n && is_ident_char(src[j])) ++j;
      }
      out.push_back({TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: maximal munch over the known multi-char set.
    bool matched = false;
    for (const char* p : kPunct3) {
      if (src.compare(i, 3, p) == 0) {
        out.push_back({TokKind::kPunct, p, line});
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* p : kPunct2) {
      if (src.compare(i, 2, p) == 0) {
        out.push_back({TokKind::kPunct, p, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// --- function extraction -----------------------------------------------------

namespace {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",        "catch",
      "return", "sizeof", "throw",  "static_assert", "alignof",
      "new",    "delete", "do",     "else",          "case",
      "goto",   "decltype"};
  return kw;
}

bool is_specifier(const std::string& t) {
  return t == "const" || t == "noexcept" || t == "override" || t == "final" ||
         t == "mutable" || t == "constexpr";
}

// Leading declaration specifiers skipped when recovering the return type.
bool is_decl_specifier(const std::string& t) {
  return t == "const" || t == "constexpr" || t == "inline" || t == "static" ||
         t == "virtual" || t == "explicit" || t == "friend" || t == "typename";
}

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

}  // namespace

// --- control-flow extraction (R8-R10 raw material) ---------------------------

namespace {

const std::set<std::string>& assign_op_set() {
  static const std::set<std::string> ops = {"=",  "+=", "-=", "*=",  "/=", "%=",
                                            "&=", "|=", "^=", "<<=", ">>="};
  return ops;
}

// Member-function calls that mutate their receiver: `channels_.push_back(x)`
// counts as a write to `channels_` for the R8 accessor discipline.
const std::set<std::string>& mutator_methods() {
  static const std::set<std::string> m = {
      "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
      "erase",     "clear",        "insert",   "emplace",    "resize",
      "assign",    "reset"};
  return m;
}

// RAII lock-guard types: declaring one acquires its constructor arguments
// and releases them at the end of the enclosing block.
const std::set<std::string>& raii_lock_types() {
  static const std::set<std::string> t = {"lock_guard", "scoped_lock",
                                          "unique_lock", "shared_lock"};
  return t;
}

bool is_local_decl_specifier(const std::string& t) {
  return t == "const" || t == "constexpr" || t == "static" || t == "auto" ||
         t == "unsigned" || t == "signed" || t == "volatile" ||
         t == "mutable" || t == "register" || t == "typename" ||
         t == "thread_local";
}

// Builds FunctionInfo::flow from a body token range. Deliberately statement-
// grained: defs/uses are the base identifiers of access chains, if/loop heads
// become branch nodes with edges into their arms (plus a loop back edge), and
// return/break/continue/throw terminate their path. Precise enough for the
// R8-R10 tripwires, cheap enough to run at parse time and ride the
// incremental cache.
class FlowBuilder {
 public:
  explicit FlowBuilder(const std::vector<Token>& toks) : toks_(toks) {}

  std::vector<FlowStmt> build(std::size_t begin, std::size_t end) {
    stmts_.clear();
    std::size_t j = begin;
    (void)parse_block(&j, end);
    return std::move(stmts_);
  }

 private:
  // A parsed region: its entry statement (-1: transparent/empty) and the
  // statements that fall through to whatever follows it.
  struct Part {
    int entry = -1;
    std::vector<int> exits;
  };

  // Runaway backstop: a pathological body stops growing its CFG rather than
  // bloating the cache (the analyses simply see a truncated graph).
  static constexpr std::size_t kMaxStmts = 2048;

  int add_stmt(FlowStmt s) {
    if (stmts_.size() >= kMaxStmts) return -1;
    auto dedupe = [](std::vector<std::string>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedupe(&s.defs);
    dedupe(&s.uses);
    dedupe(&s.calls);
    dedupe(&s.locks);
    dedupe(&s.unlocks);
    stmts_.push_back(std::move(s));
    return static_cast<int>(stmts_.size()) - 1;
  }

  void link(const std::vector<int>& from, int to) {
    if (to < 0) return;
    for (const int f : from)
      if (f >= 0) stmts_[f].succ.push_back(to);
  }

  // `*j` points at '{'. Consumes through the matching '}'.
  Part parse_block(std::size_t* j, std::size_t end) {
    Part out;
    std::vector<int> prev;
    bool started = false;
    std::vector<std::string> raii;  // mutexes released when this block closes
    if (*j < end && is_punct(toks_[*j], "{")) ++*j;
    while (*j < end && !is_punct(toks_[*j], "}")) {
      const std::size_t before = *j;
      Part p = parse_stmt(j, end, &raii);
      if (*j <= before) ++*j;  // safety: always make progress
      if (p.entry < 0) continue;
      if (!started) {
        out.entry = p.entry;
        started = true;
      } else {
        link(prev, p.entry);
      }
      prev = std::move(p.exits);
    }
    const int close_line =
        *j < end ? toks_[*j].line : (end > 0 ? toks_[end - 1].line : 0);
    if (*j < end) ++*j;  // consume '}'
    if (!raii.empty()) {
      // Synthetic scope-exit release for the block's RAII guards.
      FlowStmt rel;
      rel.line = close_line;
      rel.unlocks = raii;
      const int idx = add_stmt(std::move(rel));
      if (idx >= 0) {
        link(prev, idx);
        if (!started) {
          out.entry = idx;
          started = true;
        }
        prev = {idx};
      }
    }
    if (started) out.exits = std::move(prev);
    return out;
  }

  Part parse_stmt(std::size_t* j, std::size_t end,
                  std::vector<std::string>* raii) {
    if (*j >= end) return {};
    const Token& t = toks_[*j];
    if (is_punct(t, "{")) return parse_block(j, end);
    if (is_punct(t, ";")) {
      ++*j;
      return {};
    }
    if (t.kind == TokKind::kIdent) {
      const std::string& kw = t.text;
      if (kw == "if") return parse_if(j, end, raii);
      if (kw == "while") return parse_while(j, end, raii);
      if (kw == "for") return parse_for(j, end, raii);
      if (kw == "do") return parse_do(j, end, raii);
      if (kw == "switch") return parse_switch(j, end, raii);
      if (kw == "case" || kw == "default") {  // transparent label
        while (*j < end && !is_punct(toks_[*j], ":")) ++*j;
        if (*j < end) ++*j;
        return {};
      }
      if (kw == "else") {  // stray else (should be consumed by parse_if)
        ++*j;
        return parse_stmt(j, end, raii);
      }
    }
    return parse_plain(j, end, raii);
  }

  // Locates the head's balanced parens after a control keyword at `*j`;
  // leaves `*j` one past the ')'.
  bool head_parens(std::size_t* j, std::size_t end, std::size_t* open,
                   std::size_t* close) {
    std::size_t k = *j + 1;
    while (k < end && !is_punct(toks_[k], "(")) {
      if (toks_[k].kind == TokKind::kPunct) return false;
      ++k;  // `if constexpr (...)` and friends
    }
    if (k >= end) return false;
    *open = k;
    int pd = 0;
    for (; k < end; ++k) {
      if (is_punct(toks_[k], "(")) ++pd;
      else if (is_punct(toks_[k], ")") && --pd == 0) {
        *close = k;
        *j = k + 1;
        return true;
      }
    }
    return false;
  }

  Part parse_if(std::size_t* j, std::size_t end,
                std::vector<std::string>* raii) {
    const int line = toks_[*j].line;
    std::size_t open = 0, close = 0;
    if (!head_parens(j, end, &open, &close)) {
      ++*j;
      return {};
    }
    FlowStmt head;
    head.line = line;
    head.kind = FlowStmt::Kind::kBranch;
    scan_exprs(open + 1, close, &head);
    const int h = add_stmt(std::move(head));
    Part then_p = parse_stmt(j, end, raii);
    if (h < 0) return then_p;
    link({h}, then_p.entry);
    Part out;
    out.entry = h;
    out.exits = then_p.entry < 0 ? std::vector<int>{h} : then_p.exits;
    if (*j < end && toks_[*j].kind == TokKind::kIdent &&
        toks_[*j].text == "else") {
      ++*j;
      Part else_p = parse_stmt(j, end, raii);
      link({h}, else_p.entry);
      if (else_p.entry < 0) {
        out.exits.push_back(h);
      } else {
        out.exits.insert(out.exits.end(), else_p.exits.begin(),
                         else_p.exits.end());
      }
    } else if (then_p.entry >= 0) {
      out.exits.push_back(h);  // fall-through when the condition is false
    }
    return out;
  }

  Part parse_loop_head_and_body(FlowStmt head, std::size_t* j, std::size_t end,
                                std::vector<std::string>* raii) {
    const int h = add_stmt(std::move(head));
    Part body = parse_stmt(j, end, raii);
    if (h < 0) return body;
    link({h}, body.entry);
    link(body.exits, h);  // back edge
    Part out;
    out.entry = h;
    out.exits = {h};
    return out;
  }

  Part parse_while(std::size_t* j, std::size_t end,
                   std::vector<std::string>* raii) {
    const int line = toks_[*j].line;
    std::size_t open = 0, close = 0;
    if (!head_parens(j, end, &open, &close)) {
      ++*j;
      return {};
    }
    FlowStmt head;
    head.line = line;
    head.kind = FlowStmt::Kind::kLoop;
    scan_exprs(open + 1, close, &head);
    return parse_loop_head_and_body(std::move(head), j, end, raii);
  }

  Part parse_for(std::size_t* j, std::size_t end,
                 std::vector<std::string>* raii) {
    const int line = toks_[*j].line;
    std::size_t open = 0, close = 0;
    if (!head_parens(j, end, &open, &close)) {
      ++*j;
      return {};
    }
    FlowStmt head;
    head.line = line;
    // Range-for: a ':' at paren depth 1 with no ';' separators. The bound
    // variables are R9 taint targets when the range is nondet-ordered.
    std::size_t colon = kNpos;
    bool classic = false;
    {
      int pd = 1;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (is_punct(toks_[k], "(")) ++pd;
        else if (is_punct(toks_[k], ")")) --pd;
        else if (pd == 1 && is_punct(toks_[k], ";")) {
          classic = true;
          break;
        } else if (pd == 1 && colon == kNpos && is_punct(toks_[k], ":")) {
          colon = k;
        }
      }
    }
    if (!classic && colon != kNpos) {
      head.kind = FlowStmt::Kind::kRangeFor;
      for (std::size_t k = open + 1; k < colon; ++k) {
        if (toks_[k].kind == TokKind::kIdent &&
            !is_local_decl_specifier(toks_[k].text))
          head.defs.push_back(toks_[k].text);
      }
      scan_exprs(colon + 1, close, &head);
    } else {
      head.kind = FlowStmt::Kind::kLoop;
      std::vector<std::string> ignored;
      analyze_range(open + 1, close, &head, &ignored);
    }
    return parse_loop_head_and_body(std::move(head), j, end, raii);
  }

  Part parse_do(std::size_t* j, std::size_t end,
                std::vector<std::string>* raii) {
    ++*j;  // past 'do'
    Part body = parse_stmt(j, end, raii);
    FlowStmt cond;
    cond.kind = FlowStmt::Kind::kLoop;
    cond.line = *j < end ? toks_[*j].line : 0;
    if (*j < end && toks_[*j].kind == TokKind::kIdent &&
        toks_[*j].text == "while") {
      std::size_t open = 0, close = 0;
      if (head_parens(j, end, &open, &close)) scan_exprs(open + 1, close, &cond);
      if (*j < end && is_punct(toks_[*j], ";")) ++*j;
    }
    const int c = add_stmt(std::move(cond));
    if (c < 0) return body;
    link(body.exits, c);
    link({c}, body.entry);  // back edge
    Part out;
    out.entry = body.entry >= 0 ? body.entry : c;
    out.exits = {c};
    return out;
  }

  Part parse_switch(std::size_t* j, std::size_t end,
                    std::vector<std::string>* raii) {
    const int line = toks_[*j].line;
    std::size_t open = 0, close = 0;
    if (!head_parens(j, end, &open, &close)) {
      ++*j;
      return {};
    }
    FlowStmt head;
    head.line = line;
    head.kind = FlowStmt::Kind::kBranch;
    scan_exprs(open + 1, close, &head);
    const int h = add_stmt(std::move(head));
    Part body = parse_stmt(j, end, raii);
    if (h < 0) return body;
    link({h}, body.entry);
    Part out;
    out.entry = h;
    out.exits = body.exits;
    out.exits.push_back(h);  // no matching case
    return out;
  }

  Part parse_plain(std::size_t* j, std::size_t end,
                   std::vector<std::string>* raii) {
    const std::size_t lo = *j;
    int pd = 0, bd = 0;
    std::size_t k = lo;
    for (; k < end; ++k) {
      const Token& t = toks_[k];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") ++pd;
      else if (t.text == ")") --pd;
      else if (t.text == "{") ++bd;  // lambda body / brace init
      else if (t.text == "}") {
        if (bd == 0) break;  // end of enclosing block; unterminated statement
        --bd;
      } else if (t.text == ";" && pd <= 0 && bd == 0) {
        break;
      }
    }
    const std::size_t hi = k;  // exclusive of the ';'
    *j = k < end && is_punct(toks_[k], ";") ? k + 1 : k;
    if (hi == lo) return {};
    FlowStmt s;
    s.line = toks_[lo].line;
    const bool terminal =
        toks_[lo].kind == TokKind::kIdent &&
        (toks_[lo].text == "return" || toks_[lo].text == "break" ||
         toks_[lo].text == "continue" || toks_[lo].text == "throw" ||
         toks_[lo].text == "goto");
    analyze_range(lo + (terminal ? 1 : 0), hi, &s, raii);
    const int idx = add_stmt(std::move(s));
    Part p;
    p.entry = idx;
    if (!terminal && idx >= 0) p.exits = {idx};
    return p;
  }

  // Statement-level extraction: declaration handling first (so the declared
  // name is a def and a RAII guard registers its mutexes), then a generic
  // expression scan over the rest.
  void analyze_range(std::size_t lo, std::size_t hi, FlowStmt* s,
                     std::vector<std::string>* raii) {
    std::string declared;
    std::size_t init_from = kNpos;
    detect_decl(lo, hi, s, &declared, &init_from);
    if (!declared.empty()) {
      s->defs.push_back(declared);
      bool raii_lock = false;
      {
        std::istringstream type(s->decl_type);
        std::string word;
        while (type >> word)
          if (raii_lock_types().count(word) != 0) raii_lock = true;
      }
      if (raii_lock) {
        // `std::lock_guard<std::mutex> g(mu_);` — acquire now, release when
        // the enclosing block closes.
        for (std::size_t k = init_from == kNpos ? hi : init_from; k < hi; ++k) {
          if (toks_[k].kind != TokKind::kIdent) continue;
          std::string base, last;
          k = scan_chain(k, hi, &base, &last) - 1;
          s->locks.push_back(last);
          s->uses.push_back(last);
          raii->push_back(last);
        }
        return;
      }
      if (init_from == kNpos) return;
      lo = init_from;
    }
    scan_exprs(lo, hi, s);
  }

  // Recognizes a local declaration at the start of [lo, hi):
  //   specifier* type-chain template-args? [*&]* name ('=' | '{' | '(' | end)
  // Fills decl_type (space-joined type idents), the declared name, and the
  // first initializer token (kNpos when there is no initializer).
  void detect_decl(std::size_t lo, std::size_t hi, FlowStmt* s,
                   std::string* name, std::size_t* init_from) const {
    std::size_t k = lo;
    std::vector<std::string> type;
    while (k < hi && toks_[k].kind == TokKind::kIdent &&
           is_local_decl_specifier(toks_[k].text)) {
      type.push_back(toks_[k].text);
      ++k;
    }
    while (k < hi && toks_[k].kind == TokKind::kIdent) {
      if (control_keywords().count(toks_[k].text) != 0) return;
      std::vector<std::string> seg = {toks_[k].text};
      std::size_t seg_end = k + 1;
      while (seg_end + 1 < hi && is_punct(toks_[seg_end], "::") &&
             toks_[seg_end + 1].kind == TokKind::kIdent) {
        seg.push_back(toks_[seg_end + 1].text);
        seg_end += 2;
      }
      bool templated = false;
      if (seg_end < hi && is_punct(toks_[seg_end], "<")) {
        const std::size_t after = skip_angles(seg_end, hi, &seg);
        if (after == kNpos) return;  // comparison, not a type
        seg_end = after;
        templated = true;
      }
      // The segment may itself be the declared name (`auto it = ...`,
      // `unsigned x = 0`): a single untemplated ident, with type context
      // already collected, followed by an initializer or the end.
      if (!templated && seg.size() == 1 && !type.empty() &&
          is_init_or_end(seg_end, hi)) {
        *name = seg[0];
        s->decl_type = join_words(type);
        *init_from = seg_end < hi ? seg_end + 1 : kNpos;
        return;
      }
      std::size_t decl_end = seg_end;
      while (decl_end < hi && toks_[decl_end].kind == TokKind::kPunct &&
             (toks_[decl_end].text == "*" || toks_[decl_end].text == "&" ||
              toks_[decl_end].text == "&&"))
        ++decl_end;
      if (decl_end < hi && toks_[decl_end].kind == TokKind::kIdent &&
          control_keywords().count(toks_[decl_end].text) == 0 &&
          is_init_or_end(decl_end + 1, hi)) {
        for (const std::string& t : seg) type.push_back(t);
        *name = toks_[decl_end].text;
        s->decl_type = join_words(type);
        *init_from = decl_end + 1 < hi ? decl_end + 2 : kNpos;
        return;
      }
      // Multi-word builtin types (`unsigned long x`): absorb and continue.
      if (!templated && seg.size() == 1 && seg_end == k + 1 && seg_end < hi &&
          toks_[seg_end].kind == TokKind::kIdent) {
        type.push_back(seg[0]);
        k = seg_end;
        continue;
      }
      return;
    }
  }

  bool is_init_or_end(std::size_t k, std::size_t hi) const {
    if (k >= hi) return true;
    if (toks_[k].kind != TokKind::kPunct) return false;
    const std::string& p = toks_[k].text;
    return p == "=" || p == "{" || p == "(" || p == ";" || p == ",";
  }

  // Balanced template-argument skip bounded to [k, hi); collects the
  // identifier tokens inside into `seg`.
  std::size_t skip_angles(std::size_t k, std::size_t hi,
                          std::vector<std::string>* seg) const {
    int depth = 0;
    std::size_t steps = 0;
    for (; k < hi && steps < 256; ++k, ++steps) {
      const Token& t = toks_[k];
      if (t.kind == TokKind::kIdent) {
        if (seg != nullptr && depth > 0) seg->push_back(t.text);
        continue;
      }
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "<") {
        ++depth;
      } else if (t.text == ">") {
        if (--depth == 0) return k + 1;
      } else if (t.text == ">>") {
        depth -= 2;
        if (depth <= 0) return k + 1;
      } else if (t.text == ";" || t.text == "{" || t.text == "}" ||
                 t.text == "&&" || t.text == "||") {
        return kNpos;
      }
    }
    return kNpos;
  }

  // Access-chain scan: at an identifier, consume `a.b->c::d` and report the
  // base and last identifiers; returns one past the chain.
  std::size_t scan_chain(std::size_t k, std::size_t hi, std::string* base,
                         std::string* last) const {
    *base = *last = toks_[k].text;
    ++k;
    while (k + 1 < hi && toks_[k].kind == TokKind::kPunct &&
           (toks_[k].text == "." || toks_[k].text == "->" ||
            toks_[k].text == "::") &&
           toks_[k + 1].kind == TokKind::kIdent) {
      *last = toks_[k + 1].text;
      k += 2;
    }
    return k;
  }

  // Generic expression scan: calls, defs (assignment targets, ++/--,
  // container mutators, std::erase/erase_if first args), lock()/unlock(),
  // and uses for everything else.
  void scan_exprs(std::size_t lo, std::size_t hi, FlowStmt* s) {
    bool pending_incr = false;
    for (std::size_t k = lo; k < hi;) {
      const Token& t = toks_[k];
      if (t.kind == TokKind::kPunct && (t.text == "++" || t.text == "--")) {
        pending_incr = true;
        ++k;
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        ++k;
        continue;
      }
      std::string base, last;
      const std::size_t after = scan_chain(k, hi, &base, &last);
      k = after;
      const bool called = after < hi && is_punct(toks_[after], "(");
      bool wrote = false;
      if (called && control_keywords().count(last) == 0) {
        s->calls.push_back(last);
        const bool member_call = base != last;
        if (member_call && last == "lock") {
          s->locks.push_back(base);
        } else if (member_call && last == "unlock") {
          s->unlocks.push_back(base);
        } else if (member_call && mutator_methods().count(last) != 0) {
          s->defs.push_back(base);
          wrote = true;
        } else if ((last == "erase" || last == "erase_if") && !member_call) {
          // unreachable: bare erase is member_call==false only when base==last
          wrote = false;
        }
        if ((last == "erase" || last == "erase_if") && base == "std") {
          // std::erase(_if)(container, ...) mutates its first argument.
          std::size_t a = after + 1;
          while (a < hi && toks_[a].kind != TokKind::kIdent &&
                 !is_punct(toks_[a], ")"))
            ++a;
          if (a < hi && toks_[a].kind == TokKind::kIdent)
            s->defs.push_back(toks_[a].text);
        }
      }
      const bool assigned = after < hi &&
                            toks_[after].kind == TokKind::kPunct &&
                            assign_op_set().count(toks_[after].text) != 0;
      const bool post_incr = after < hi &&
                             toks_[after].kind == TokKind::kPunct &&
                             (toks_[after].text == "++" ||
                              toks_[after].text == "--");
      if (!wrote) {
        if (assigned || post_incr || pending_incr) {
          s->defs.push_back(base);
        } else if (!(called && base == last)) {
          s->uses.push_back(base);
        }
      }
      pending_incr = false;
    }
  }

  static std::string join_words(const std::vector<std::string>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += " ";
      out += v[i];
    }
    return out;
  }

  const std::vector<Token>& toks_;
  std::vector<FlowStmt> stmts_;
};

}  // namespace

bool qname_matches(const std::string& qname, const std::string& pattern) {
  if (qname == pattern) return true;
  const std::string suffix = "::" + pattern;
  return qname.size() > suffix.size() &&
         qname.compare(qname.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

FileFacts extract_facts(const std::vector<Token>& toks) {
  FileFacts out;
  const std::size_t n = toks.size();

  // Skips past a balanced (...) run; `j` must point at the opener.
  auto skip_parens = [&](std::size_t j) -> std::size_t {
    int depth = 0;
    for (; j < n; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      else if (is_punct(toks[j], ")") && --depth == 0) return j + 1;
    }
    return j;
  };
  auto skip_braces = [&](std::size_t j) -> std::size_t {
    int depth = 0;
    for (; j < n; ++j) {
      if (is_punct(toks[j], "{")) ++depth;
      else if (is_punct(toks[j], "}") && --depth == 0) return j + 1;
    }
    return j;
  };

  // `j` points at '<'. Returns the index past the balanced '>', or kNpos
  // when the run is not a plausible template-argument list (a comparison, an
  // unclosed shift, ...). Token budget keeps a stray '<' from scanning the
  // rest of the file.
  auto skip_template_args = [&](std::size_t j) -> std::size_t {
    int depth = 0;
    std::size_t steps = 0;
    for (; j < n && steps < 256; ++j, ++steps) {
      const Token& t = toks[j];
      if (is_punct(t, "<")) {
        ++depth;
      } else if (is_punct(t, ">")) {
        if (--depth == 0) return j + 1;
      } else if (is_punct(t, ">>")) {
        depth -= 2;
        if (depth <= 0) return j + 1;
      } else if (t.kind == TokKind::kPunct &&
                 (t.text == "(" || t.text == ")" || t.text == "{" ||
                  t.text == "}" || t.text == ";" || t.text == "&&" ||
                  t.text == "||")) {
        return kNpos;  // not a template-argument list
      }
    }
    return kNpos;
  };

  // Parses a (possibly ::-qualified, possibly templated) identifier chain
  // starting at `j`, including operator names (`operator()`, `operator==`,
  // `operator bool`). Template arguments are dropped from the recorded name
  // (`Foo<int>::reset` -> "Foo::reset"). Returns one-past-the-chain; fills
  // qname/name/line.
  auto parse_chain = [&](std::size_t j, std::string* qname, std::string* name,
                         int* name_line) -> std::size_t {
    qname->clear();
    while (j < n) {
      if (is_punct(toks[j], "~") && j + 1 < n &&
          toks[j + 1].kind == TokKind::kIdent) {  // destructor
        *qname += "~";
        ++j;
        continue;
      }
      if (toks[j].kind != TokKind::kIdent) break;
      if (toks[j].text == "operator") {
        // Operator name: `operator` + symbol(s), or a conversion type.
        *name_line = toks[j].line;
        std::string op = "operator";
        ++j;
        if (j < n && toks[j].kind == TokKind::kIdent) {
          // operator bool / operator new / conversion operators.
          op += " " + toks[j].text;
          ++j;
          while (j + 1 < n && is_punct(toks[j], "::") &&
                 toks[j + 1].kind == TokKind::kIdent) {
            op += "::" + toks[j + 1].text;
            j += 2;
          }
        } else if (j + 1 < n && is_punct(toks[j], "(") &&
                   is_punct(toks[j + 1], ")")) {
          op += "()";
          j += 2;
        } else if (j + 1 < n && is_punct(toks[j], "[") &&
                   is_punct(toks[j + 1], "]")) {
          op += "[]";
          j += 2;
        } else {
          while (j < n && toks[j].kind == TokKind::kPunct &&
                 !is_punct(toks[j], "("))
            op += toks[j++].text;
        }
        *qname += op;
        *name = op;
        return j;  // an operator name ends the chain
      }
      *qname += toks[j].text;
      *name = toks[j].text;
      *name_line = toks[j].line;
      ++j;
      // Template arguments glued to this segment: `Foo<int>::reset`,
      // `get<int>(x)`. Consumed (and dropped from the name) only when the
      // balanced run is followed by `::` or `(` — a bare `a < b` comparison
      // is left alone.
      if (j < n && is_punct(toks[j], "<")) {
        const std::size_t after_t = skip_template_args(j);
        if (after_t != kNpos && after_t < n &&
            (is_punct(toks[after_t], "::") || is_punct(toks[after_t], "(")))
          j = after_t;
      }
      if (j + 1 < n && is_punct(toks[j], "::") &&
          (toks[j + 1].kind == TokKind::kIdent || is_punct(toks[j + 1], "~"))) {
        *qname += "::";
        ++j;
        continue;
      }
      break;
    }
    return j;
  };

  // Consumes a function body starting at its '{'; records calls.
  auto parse_body = [&](std::size_t j, FunctionInfo* fn) -> std::size_t {
    int depth = 0;
    while (j < n) {
      const Token& t = toks[j];
      if (is_punct(t, "{")) {
        ++depth;
        ++j;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        ++j;
        if (depth == 0) return j;
        continue;
      }
      if (t.kind == TokKind::kIdent || is_punct(t, "~")) {
        std::string qname, name;
        int line = t.line;
        const std::size_t after = parse_chain(j, &qname, &name, &line);
        if (after > j) {
          if (after < n && is_punct(toks[after], "(") &&
              control_keywords().count(name) == 0) {
            CallSite call;
            call.name = name;
            call.line = line;
            if (qname.size() > name.size() + 2)
              call.qualifier =
                  qname.substr(0, qname.size() - name.size() - 2);
            fn->calls.push_back(name);
            fn->call_sites.push_back(std::move(call));
          }
          j = after;
          continue;
        }
      }
      ++j;
    }
    return j;
  };

  // Class-scope tracking: pushed when a class/struct/union *body* opens at
  // the main-loop level, popped at its closing brace. Function bodies are
  // consumed by parse_body, so the main loop only ever walks namespace and
  // class scope (plus brace-initializers, which balance out).
  struct ClassScope {
    std::string name;
    int depth;
  };
  std::vector<ClassScope> classes;
  int depth = 0;

  auto scope_prefix = [&]() -> std::string {
    std::string prefix;
    for (const auto& c : classes)
      if (!c.name.empty()) prefix += c.name + "::";
    return prefix;
  };

  // Class-scope data-member recognizer for R8/R9. `j` points at the first
  // token of a statement (possibly an OVERHAUL_* annotation macro). On
  // success fills `m` (everything but klass) and returns one past the ';';
  // returns kNpos when the statement is not a plain data member.
  auto member_scan = [&](std::size_t j, MemberDecl* m) -> std::size_t {
    if (toks[j].kind != TokKind::kIdent) return kNpos;
    const std::string& first = toks[j].text;
    if (first == "OVERHAUL_SHARD_LOCAL") {
      m->anno = MemberAnno::kShardLocal;
      ++j;
    } else if (first == "OVERHAUL_SHARED" || first == "OVERHAUL_GUARDED_BY") {
      m->anno = first == "OVERHAUL_SHARED" ? MemberAnno::kShared
                                           : MemberAnno::kGuardedBy;
      ++j;
      if (j >= n || !is_punct(toks[j], "(")) return kNpos;
      const std::size_t close = skip_parens(j);
      // '|'-joined accessor list; qualified names keep their "::".
      for (std::size_t k = j + 1; k + 1 < close; ++k) {
        const Token& g = toks[k];
        if (g.kind == TokKind::kIdent) {
          m->guard += g.text;
        } else if (is_punct(g, "::")) {
          m->guard += "::";
        } else if (!m->guard.empty() && m->guard.back() != '|') {
          m->guard += "|";
        }
      }
      if (!m->guard.empty() && m->guard.back() == '|') m->guard.pop_back();
      j = close;
    }
    if (j >= n || toks[j].kind != TokKind::kIdent) return kNpos;
    static const std::set<std::string> kNotMember = {
        "using",    "typedef", "friend",  "operator",      "public",
        "private",  "protected", "template", "static_assert", "class",
        "struct",   "union",   "enum",    "namespace",     "virtual",
        "explicit", "return",  "if",      "for",           "while",
        "switch",   "do",      "case",    "default",       "goto"};
    // Pre-initializer walk: collect declaration tokens up to ';', '=', or a
    // brace initializer, rejecting anything function-shaped along the way.
    bool is_const = false, is_constexpr = false, has_star = false;
    int angle = 0;
    std::size_t k = j;
    std::size_t stmt_end = kNpos;  // one past the ';'
    std::size_t init_at = kNpos;   // position of '=' or the init '{'
    while (k < n) {
      const Token& tk = toks[k];
      if (tk.kind == TokKind::kIdent) {
        if (angle == 0 && kNotMember.count(tk.text) != 0) return kNpos;
        if (angle == 0 && tk.text == "const") is_const = true;
        if (angle == 0 && tk.text == "constexpr") is_constexpr = true;
        ++k;
        continue;
      }
      if (tk.kind != TokKind::kPunct) {  // literal (array dimension, ...)
        ++k;
        continue;
      }
      const std::string& p = tk.text;
      if (p == "<") {
        ++angle;
        ++k;
        continue;
      }
      if (p == ">" || p == ">>") {
        angle = std::max(0, angle - (p == ">" ? 1 : 2));
        ++k;
        continue;
      }
      if (angle > 0) {  // anything goes inside template arguments
        ++k;
        continue;
      }
      if (p == "*") {
        has_star = true;
        ++k;
        continue;
      }
      if (p == "&" || p == "&&" || p == "::" || p == "[" || p == "]") {
        ++k;
        continue;
      }
      if (p == ";") {
        stmt_end = k + 1;
        break;
      }
      if (p == "=" || p == "{") {
        init_at = k;
        break;
      }
      return kNpos;  // '(', ',', ':', '~', ... — function, bitfield, ...
    }
    if (stmt_end == kNpos) {
      if (init_at == kNpos || init_at == j) return kNpos;
      if (is_punct(toks[init_at], "{")) {
        // A brace initializer directly follows a name (`v_{...}`); a '{'
        // after anything else is a function body.
        const Token& prev = toks[init_at - 1];
        if (!(prev.kind == TokKind::kIdent || is_punct(prev, ">") ||
              is_punct(prev, "]")))
          return kNpos;
        const std::size_t after_braces = skip_braces(init_at);
        if (after_braces >= n || !is_punct(toks[after_braces], ";"))
          return kNpos;
        stmt_end = after_braces + 1;
      } else {  // '=': skip the initializer to the ';' at depth 0
        int pd = 0, bd = 0;
        std::size_t e = init_at + 1;
        for (; e < n; ++e) {
          const Token& v = toks[e];
          if (v.kind != TokKind::kPunct) continue;
          if (v.text == "(") ++pd;
          else if (v.text == ")") --pd;
          else if (v.text == "{") ++bd;
          else if (v.text == "}") {
            if (bd == 0) return kNpos;  // ran off the class body
            --bd;
          } else if (v.text == ";" && pd == 0 && bd == 0) {
            break;
          }
        }
        if (e >= n) return kNpos;
        stmt_end = e + 1;
      }
    }
    // The declared name: the identifier directly before the initializer /
    // terminator (or before its '[' array dimensions).
    const std::size_t decl_stop = init_at != kNpos ? init_at : stmt_end - 1;
    std::size_t name_pos = kNpos;
    for (std::size_t q = decl_stop; q > j; --q) {
      if (toks[q - 1].kind != TokKind::kIdent) continue;
      const Token& nx = toks[q];
      if (is_punct(nx, ";") || is_punct(nx, "=") || is_punct(nx, "{") ||
          is_punct(nx, "["))
        name_pos = q - 1;
      break;
    }
    if (name_pos == kNpos || name_pos == j) return kNpos;
    m->name = toks[name_pos].text;
    m->line = toks[name_pos].line;
    for (std::size_t q = j; q < name_pos; ++q) {
      if (toks[q].kind != TokKind::kIdent) continue;
      if (!m->type.empty()) m->type += " ";
      m->type += toks[q].text;
    }
    const bool is_ref = is_punct(toks[name_pos - 1], "&") ||
                        is_punct(toks[name_pos - 1], "&&");
    m->is_mutable = !is_constexpr && !is_ref && !(is_const && !has_star);
    // R7 compatibility: `Type* name` members keep feeding pointer_fields.
    if (name_pos >= j + 2 && is_punct(toks[name_pos - 1], "*") &&
        toks[name_pos - 2].kind == TokKind::kIdent &&
        name_pos + 1 < n &&
        (is_punct(toks[name_pos + 1], ";") ||
         is_punct(toks[name_pos + 1], "=") ||
         is_punct(toks[name_pos + 1], "{"))) {
      out.pointer_fields.push_back({toks[name_pos - 2].text, m->name, m->line});
    }
    return stmt_end;
  };

  // True when `i` sits at the start of a class/namespace-scope statement —
  // the only positions where a member declaration may begin. Keeps the
  // member scanner from re-triggering on identifiers mid-declaration.
  bool stmt_start = true;

  // Lane-context annotation (R13) waiting for the definition it precedes.
  // The macro must be the statement's first token; any ';' or scope brace
  // before a definition header voids it (a declaration-only annotation
  // never leaks onto the next function).
  FnAnno pending_anno = FnAnno::kNone;

  std::size_t i = 0;
  while (i < n) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      ++depth;
      ++i;
      stmt_start = true;
      pending_anno = FnAnno::kNone;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!classes.empty() && classes.back().depth == depth) classes.pop_back();
      --depth;
      ++i;
      stmt_start = true;
      pending_anno = FnAnno::kNone;
      continue;
    }
    if (t.kind != TokKind::kIdent && !is_punct(t, "~")) {
      stmt_start = is_punct(t, ";") || is_punct(t, ":");
      if (is_punct(t, ";")) pending_anno = FnAnno::kNone;
      ++i;
      continue;
    }
    if (t.text == "template") {  // skip the parameter list <...>
      ++i;
      if (i < n && is_punct(toks[i], "<")) {
        int tdepth = 0;
        for (; i < n; ++i) {
          if (is_punct(toks[i], "<")) ++tdepth;
          else if (is_punct(toks[i], ">") && --tdepth == 0) {
            ++i;
            break;
          }
        }
      }
      stmt_start = false;
      continue;
    }
    if (t.text == "enum") {
      ++i;
      if (i < n && toks[i].kind == TokKind::kIdent &&
          (toks[i].text == "class" || toks[i].text == "struct"))
        ++i;
      if (i < n && toks[i].kind == TokKind::kIdent) ++i;  // name
      while (i < n && !is_punct(toks[i], "{") && !is_punct(toks[i], ";")) ++i;
      if (i < n && is_punct(toks[i], "{")) i = skip_braces(i);
      stmt_start = true;
      continue;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union") {
      // Parse the (possibly qualified/templated) class-head name, then scan
      // for the body. A `;` first means forward declaration / friend decl /
      // C-style variable — no scope to push.
      std::string cname, clast;
      int cline = t.line;
      std::size_t j = parse_chain(i + 1, &cname, &clast, &cline);
      std::size_t k = j;
      bool found_body = false;
      while (k < n) {
        if (is_punct(toks[k], "{")) {
          found_body = true;
          break;
        }
        if (is_punct(toks[k], ";") || is_punct(toks[k], "=")) break;
        if (is_punct(toks[k], "(")) {
          k = skip_parens(k);
          continue;
        }
        if (is_punct(toks[k], "<")) {
          const std::size_t a = skip_template_args(k);
          k = a == kNpos ? k + 1 : a;
          continue;
        }
        ++k;
      }
      if (found_body) {
        classes.push_back({clast, depth + 1});
        ++depth;
        i = k + 1;
        stmt_start = true;
      } else {
        i = std::max(k, i + 1);
        stmt_start = false;
      }
      continue;
    }

    // Lane-context function annotation (R13): consumed here, attached to
    // the next definition header this statement produces.
    if (stmt_start && (t.text == "OVERHAUL_COORDINATOR_ONLY" ||
                       t.text == "OVERHAUL_LANE_SAFE")) {
      pending_anno = t.text == "OVERHAUL_COORDINATOR_ONLY"
                         ? FnAnno::kCoordinatorOnly
                         : FnAnno::kLaneSafe;
      ++i;
      continue;  // stmt_start stays true for the header that follows
    }

    // Class-scope data member (R8/R9 raw material). Attempted only at
    // statement starts so mid-declaration identifiers can't re-trigger it;
    // on success the whole statement (through its ';') is consumed.
    if (stmt_start && !classes.empty() && classes.back().depth == depth) {
      MemberDecl m;
      const std::size_t after_m = member_scan(i, &m);
      if (after_m != kNpos) {
        m.klass = scope_prefix();
        if (m.klass.size() >= 2) m.klass.erase(m.klass.size() - 2);  // "::"
        out.members.push_back(std::move(m));
        i = after_m;
        continue;  // stmt_start stays true
      }
    }
    stmt_start = false;

    // Class-scope pointer field: `Type* name;` / `Type* name = ...;` /
    // `Type* name{...};`. Declarations (`Type* f(...)`) are excluded by the
    // '(' check; locals never reach the main loop (bodies are consumed).
    if (!classes.empty() && classes.back().depth == depth && i + 3 < n &&
        toks[i].kind == TokKind::kIdent && is_punct(toks[i + 1], "*") &&
        toks[i + 2].kind == TokKind::kIdent &&
        (is_punct(toks[i + 3], ";") || is_punct(toks[i + 3], "=") ||
         is_punct(toks[i + 3], "{"))) {
      out.pointer_fields.push_back(
          {toks[i].text, toks[i + 2].text, toks[i + 2].line});
      i += 3;
      continue;
    }

    std::string qname, name;
    int name_line = t.line;
    const std::size_t after = parse_chain(i, &qname, &name, &name_line);
    if (after == i || after >= n || !is_punct(toks[after], "(") ||
        control_keywords().count(name) != 0) {
      i = std::max(after, i + 1);
      continue;
    }

    // candidate definition header: NAME ( ... )
    std::size_t j = skip_parens(after);
    bool is_definition = false;
    while (j < n && !is_definition) {
      const Token& u = toks[j];
      if (u.kind == TokKind::kIdent && is_specifier(u.text)) {
        ++j;
      } else if (is_punct(u, "->")) {  // trailing return type
        ++j;
        while (j < n && !is_punct(toks[j], "{") && !is_punct(toks[j], ";"))
          ++j;
      } else if (is_punct(u, ":")) {  // constructor member-init list
        ++j;
        int pd = 0;
        while (j < n) {
          const Token& v = toks[j];
          if (is_punct(v, "(")) ++pd;
          else if (is_punct(v, ")")) --pd;
          else if (is_punct(v, "{")) {
            if (pd > 0) {
              j = skip_braces(j);
              continue;
            }
            // Brace-init of a member (`a_{x}`) directly follows a name;
            // the body brace follows ')' / '}' / the list itself.
            if (j > 0 && (toks[j - 1].kind == TokKind::kIdent ||
                          is_punct(toks[j - 1], ">"))) {
              j = skip_braces(j);
              continue;
            }
            break;  // function body
          } else if (is_punct(v, ";")) {
            break;  // malformed; bail out
          }
          ++j;
        }
      } else if (is_punct(u, "{")) {
        is_definition = true;
      } else {
        break;  // declaration, call expression, `= default`, etc.
      }
    }

    if (!is_definition) {
      i = std::max(j, after + 1);
      continue;
    }

    FunctionInfo fn;
    fn.qualified_name = classes.empty() ? qname : scope_prefix() + qname;
    fn.name = name;
    fn.line = name_line;
    fn.lane_anno = pending_anno;
    pending_anno = FnAnno::kNone;

    // Return type: walk back over '*', '&', and declaration specifiers to
    // the nearest type identifier. Constructors/destructors have none.
    {
      std::size_t b = i;
      while (b > 0) {
        const Token& u = toks[b - 1];
        if (is_punct(u, "*")) {
          fn.ret_is_ptr = true;
          --b;
          continue;
        }
        if (is_punct(u, "&") || is_punct(u, "&&")) {
          --b;
          continue;
        }
        if (u.kind == TokKind::kIdent && is_decl_specifier(u.text)) {
          --b;
          continue;
        }
        if (u.kind == TokKind::kIdent) fn.ret_type = u.text;
        break;
      }
    }

    const std::size_t body_begin = j;
    i = parse_body(j, &fn);
    fn.flow = FlowBuilder(toks).build(body_begin, i);
    out.functions.push_back(std::move(fn));
    stmt_start = true;
  }
  return out;
}

std::vector<FunctionInfo> extract_functions(const std::vector<Token>& toks) {
  return extract_facts(toks).functions;
}

// --- rule configuration ------------------------------------------------------

namespace {

std::vector<std::string> split_ws(const std::string& s) {
  std::istringstream iss(s);
  std::vector<std::string> out;
  std::string tok;
  while (iss >> tok) out.push_back(tok);
  return out;
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string normalize_path(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

}  // namespace

bool path_matches(const std::string& raw_path, const std::string& raw_entry) {
  const std::string path = normalize_path(raw_path);
  const std::string entry = normalize_path(raw_entry);
  if (entry.empty()) return false;
  if (entry.back() == '/') {
    // Directory prefix: must appear at the start or after a separator.
    if (path.compare(0, entry.size(), entry) == 0) return true;
    return path.find("/" + entry) != std::string::npos;
  }
  if (path == entry) return true;
  const std::string anchored = "/" + entry;
  return path.size() > anchored.size() &&
         path.compare(path.size() - anchored.size(), anchored.size(),
                      anchored) == 0;
}

namespace {

bool matches_any(const std::string& path,
                 const std::vector<std::string>& entries) {
  return std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
    return path_matches(path, e);
  });
}

}  // namespace

std::optional<RuleConfig> parse_rules(const std::string& text,
                                      std::string* error) {
  RuleConfig cfg;
  std::istringstream iss(text);
  std::string raw;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr)
      *error = "rules:" + std::to_string(lineno) + ": " + msg;
    return std::nullopt;
  };

  while (std::getline(iss, raw)) {
    ++lineno;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    const auto words = split_ws(raw);
    if (words.empty()) continue;
    const std::string& key = words[0];
    const std::vector<std::string> vals(words.begin() + 1, words.end());
    if (vals.empty()) return fail("key '" + key + "' needs a value");

    auto append = [&](std::vector<std::string>& dst) {
      dst.insert(dst.end(), vals.begin(), vals.end());
    };

    if (key == "r1.file") append(cfg.r1_files);
    else if (key == "r1.send_fn") append(cfg.r1_send_fns);
    else if (key == "r1.recv_fn") append(cfg.r1_recv_fns);
    else if (key == "r1.send_via") append(cfg.r1_send_via);
    else if (key == "r1.recv_via") append(cfg.r1_recv_via);
    else if (key == "r1.allow") append(cfg.r1_allow);
    else if (key == "r2.point") {
      for (const auto& v : vals) {
        const auto parts = split_on(v, ':');
        if (parts.size() != 3 || parts[0].empty() || parts[1].empty() ||
            parts[2].empty())
          return fail("r2.point wants file:function:call1|call2, got '" + v +
                      "'");
        MediationPoint p;
        p.file = parts[0];
        p.function = parts[1];
        p.calls = split_on(parts[2], '|');
        cfg.r2_points.push_back(std::move(p));
      }
    } else if (key == "r2.allow") append(cfg.r2_allow);
    else if (key == "r3.field") append(cfg.r3_fields);
    else if (key == "r3.allow") append(cfg.r3_allow);
    else if (key == "r4.banned") append(cfg.r4_banned);
    else if (key == "r4.exempt") append(cfg.r4_exempt);
    else if (key == "r5.seed") {
      for (const auto& v : vals) {
        const auto parts = split_on(v, ':');
        if (parts.size() != 2 || parts[0].empty() || parts[1].empty())
          return fail("r5.seed wants file:function, got '" + v + "'");
        cfg.r5_seeds.push_back({parts[0], parts[1]});
      }
    } else if (key == "r5.sink") append(cfg.r5_sinks);
    else if (key == "r6.mint") append(cfg.r6_mints);
    else if (key == "r6.source") append(cfg.r6_sources);
    else if (key == "r6.allow") append(cfg.r6_allow);
    else if (key == "r7.type") append(cfg.r7_types);
    else if (key == "r7.allow") append(cfg.r7_allow);
    else if (key == "r8.root") append(cfg.r8_roots);
    else if (key == "r8.allow") append(cfg.r8_allow);
    else if (key == "r9.nondet") append(cfg.r9_nondet);
    else if (key == "r9.source") append(cfg.r9_sources);
    else if (key == "r9.sink") append(cfg.r9_sinks);
    else if (key == "r9.allow") append(cfg.r9_allow);
    else if (key == "r10.order") append(cfg.r10_order);
    else if (key == "r10.holds") {
      for (const auto& v : vals) {
        const auto parts = split_on(v, ':');
        if (parts.size() != 2 || parts[0].empty() || parts[1].empty())
          return fail("r10.holds wants function:mutex, got '" + v + "'");
        cfg.r10_holds.emplace_back(parts[0], parts[1]);
      }
    } else if (key == "r10.allow") append(cfg.r10_allow);
    else if (key == "r11.local") append(cfg.r11_local);
    else if (key == "r11.fleet") append(cfg.r11_fleet);
    else if (key == "r11.local_var") append(cfg.r11_local_var);
    else if (key == "r11.fleet_var") append(cfg.r11_fleet_var);
    else if (key == "r11.sink_local") append(cfg.r11_sink_local);
    else if (key == "r11.sink_fleet") append(cfg.r11_sink_fleet);
    else if (key == "r11.allow") append(cfg.r11_allow);
    else if (key == "r12.seed") {
      for (const auto& v : vals) {
        const auto parts = split_on(v, ':');
        if (parts.size() != 2 || parts[0].empty() || parts[1].empty())
          return fail("r12.seed wants file:function, got '" + v + "'");
        cfg.r12_seeds.push_back({parts[0], parts[1]});
      }
    } else if (key == "r12.audit") append(cfg.r12_audit);
    else if (key == "r12.metrics") append(cfg.r12_metrics);
    else if (key == "r13.entry") {
      for (const auto& v : vals) {
        const auto parts = split_on(v, ':');
        if (parts.size() != 2 || parts[0].empty() || parts[1].empty())
          return fail("r13.entry wants file:function, got '" + v + "'");
        cfg.r13_entries.push_back({parts[0], parts[1]});
      }
    } else if (key == "r13.allow") append(cfg.r13_allow);
    else if (key == "cg.edge") {
      if (vals.size() != 2)
        return fail("cg.edge wants exactly: caller-qname callee-qname");
      cfg.cg_edges.push_back({vals[0], vals[1]});
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  return cfg;
}

std::optional<RuleConfig> load_rules_file(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open rules file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_rules(buf.str(), error);
}

// --- per-file analysis -------------------------------------------------------

namespace {

bool calls_one_of(const FunctionInfo& fn,
                  const std::vector<std::string>& wanted) {
  return std::any_of(wanted.begin(), wanted.end(), [&](const auto& w) {
    return std::find(fn.calls.begin(), fn.calls.end(), w) != fn.calls.end();
  });
}

std::string join(const std::vector<std::string>& v, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += sep;
    out += v[i];
  }
  return out;
}

bool in_list(const std::string& s, const std::vector<std::string>& v) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// R2 function match: exact unqualified or qualified-suffix.
bool function_matches(const FunctionInfo& fn, const std::string& want) {
  return fn.name == want || qname_matches(fn.qualified_name, want);
}

}  // namespace

std::vector<Finding> run_file_rules(const FileIR& ir, const RuleConfig& cfg,
                                    RuleTimes* times) {
  std::vector<Finding> findings;
  const std::string& path = ir.path;
  const std::vector<FunctionInfo>& fns = ir.functions;

  // R1: IPC interposition completeness.
  if (const RuleTimer t(times, 1);
      matches_any(path, cfg.r1_files) && !matches_any(path, cfg.r1_allow)) {
    for (const auto& fn : fns) {
      if (in_list(fn.name, cfg.r1_send_fns) &&
          !calls_one_of(fn, cfg.r1_send_via)) {
        findings.push_back(
            {path, fn.line, "R1",
             "send interposition point '" + fn.qualified_name +
                 "' never calls any of: " + join(cfg.r1_send_via, ", "),
             fn.qualified_name});
      }
      if (in_list(fn.name, cfg.r1_recv_fns) &&
          !calls_one_of(fn, cfg.r1_recv_via)) {
        findings.push_back(
            {path, fn.line, "R1",
             "receive interposition point '" + fn.qualified_name +
                 "' never calls any of: " + join(cfg.r1_recv_via, ", "),
             fn.qualified_name});
      }
    }
  }

  // R2: direct-call anchors must keep their call edge.
  if (const RuleTimer t(times, 2); !matches_any(path, cfg.r2_allow)) {
    for (const auto& point : cfg.r2_points) {
      if (!path_matches(path, point.file)) continue;
      const auto it =
          std::find_if(fns.begin(), fns.end(), [&](const FunctionInfo& fn) {
            return function_matches(fn, point.function);
          });
      if (it == fns.end()) {
        findings.push_back(
            {path, 1, "R2",
             "mediation point '" + point.function +
                 "' not found (renamed away? update overhaul_lint.rules)",
             point.function});
      } else if (!calls_one_of(*it, point.calls)) {
        findings.push_back(
            {path, it->line, "R2",
             "'" + it->qualified_name +
                 "' serves a mediated resource but never calls any of: " +
                 join(point.calls, ", "),
             it->qualified_name});
      }
    }
  }

  // R3: guarded-field writes outside the approved API files.
  if (const RuleTimer t(times, 3);
      !cfg.r3_fields.empty() && !matches_any(path, cfg.r3_allow)) {
    for (const auto& w : ir.guarded_writes) {
      findings.push_back(
          {path, w.line, "R3",
           "raw write to '" + w.text +
               "' — use adopt_interaction()/clear_interaction() or the "
               "fork-copy path",
           w.text});
    }
  }

  // R4: banned raw clock/time primitives.
  if (const RuleTimer t(times, 4);
      !cfg.r4_banned.empty() && !matches_any(path, cfg.r4_exempt)) {
    for (const auto& b : ir.banned_idents) {
      findings.push_back(
          {path, b.line, "R4",
           "banned raw time primitive '" + b.text +
               "' — all simulation time flows through sim::Clock",
           b.text});
    }
  }

  // R7: handle discipline — raw guarded-type pointers must not be stored in
  // long-lived members or returned to callers outside the allowed owner
  // (they go stale the moment ProcessTable::reap recycles the slot; holders
  // must carry a generation-checked TaskHandle instead).
  if (const RuleTimer t(times, 7);
      !cfg.r7_types.empty() && !matches_any(path, cfg.r7_allow)) {
    for (const auto& field : ir.pointer_fields) {
      if (!in_list(field.type, cfg.r7_types)) continue;
      findings.push_back(
          {path, field.line, "R7",
           "raw " + field.type + "* member '" + field.name +
               "' stored across a reap()-reachable region — hold a "
               "generation-checked TaskHandle instead",
           field.name});
    }
    for (const auto& fn : fns) {
      if (!fn.ret_is_ptr || !in_list(fn.ret_type, cfg.r7_types)) continue;
      findings.push_back(
          {path, fn.line, "R7",
           "'" + fn.qualified_name + "' returns a raw " + fn.ret_type +
               "* — callers may hold it across reap(); return a "
               "generation-checked TaskHandle",
           fn.qualified_name});
    }
  }

  return findings;
}

std::vector<Finding> analyze_file(const std::string& path,
                                  const std::string& source,
                                  const RuleConfig& cfg) {
  const FileIR ir = build_file_ir(path, source, cfg);
  std::vector<Finding> findings = run_file_rules(ir, cfg);
  // Honor the file's inline suppressions (hygiene findings about the
  // suppressions themselves are a tree-level concern).
  std::erase_if(findings, [&](const Finding& f) {
    return std::any_of(ir.suppressions.begin(), ir.suppressions.end(),
                       [&](const Suppression& s) {
                         return s.rule == f.rule && !s.reason.empty() &&
                                (s.line == f.line || s.line + 1 == f.line);
                       });
  });
  return findings;
}

// run_lint lives in rules_flow.cpp (it wraps the whole-tree pipeline).

}  // namespace overhaul::lint
