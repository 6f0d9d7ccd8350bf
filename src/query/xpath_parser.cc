#include "query/xpath_parser.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "common/macros.h"
#include "xml/document.h"

namespace prix {

namespace {

class Parser {
 public:
  Parser(std::string_view text, TagDictionary* dict)
      : text_(text), dict_(dict) {}

  /// One left-to-right pass. Open predicates live on an explicit stack, not
  /// the call stack, so nesting depth costs heap, not recursion.
  Result<TwigPattern> Run() {
    SkipSpace();
    PRIX_ASSIGN_OR_RETURN(Axis axis, ParseAxis());
    // The step a '[' attaches to and the next '/' step chains from.
    PRIX_ASSIGN_OR_RETURN(uint32_t node,
                          ParseNodeTest(TwigPattern::kNoParent, axis));
    std::vector<uint32_t> owners;  // the step each open predicate is on
    bool after_step = true;        // a '[' may follow (not after '.' or '=')
    while (SkipSpace(), !AtEnd() || !owners.empty()) {
      if (after_step && !AtEnd() && Peek() == '[') {
        ++pos_;
        SkipSpace();
        if (Consume("text()")) {
          SkipSpace();
          if (!Consume("=")) return Error("expected '=' after text()");
          PRIX_RETURN_NOT_OK(AddValue(node));
          SkipSpace();
          if (!Consume("]")) return Error("expected ']'");
          continue;
        }
        if (!Consume(".")) {
          return Error("expected '.' or 'text()' in predicate");
        }
        // A twig nested deeper than any accepted document can never match.
        if (owners.size() == kMaxDocumentDepth) {
          return Error("predicates nested deeper than " +
                       std::to_string(kMaxDocumentDepth) + " levels");
        }
        owners.push_back(node);
        after_step = false;
      } else if (!AtEnd() && Peek() == '/') {
        PRIX_ASSIGN_OR_RETURN(Axis next, ParseAxis());
        PRIX_ASSIGN_OR_RETURN(node, ParseNodeTest(node, next));
        after_step = true;
      } else if (owners.empty()) {
        return Error("expected '/' or '//'");
      } else {
        // A predicate path ends in an optional '= STRING', then ']'.
        if (Consume("=")) {
          PRIX_RETURN_NOT_OK(AddValue(node));
          SkipSpace();
        }
        if (!Consume("]")) return Error("expected ']'");
        node = owners.back();
        owners.pop_back();
        after_step = true;
      }
    }
    return std::move(twig_);
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  /// Whitespace is insignificant outside quoted strings (XPath 1.0
  /// ExprWhitespace), so every token consumer may be preceded by it.
  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  Status Error(std::string msg) { return Error(std::move(msg), pos_); }

  /// `at` is the offset of the offending character, which is not always
  /// pos_ (e.g. an unterminated string is reported at its opening quote,
  /// not at end-of-input). The message quotes at most kErrorContext bytes
  /// on each side of it, with "..." marking a cut end, so its length does
  /// not grow with the query.
  Status Error(std::string msg, size_t at) {
    constexpr size_t kErrorContext = 32;
    const size_t begin = at > kErrorContext ? at - kErrorContext : 0;
    const size_t end = std::min(text_.size(), at + kErrorContext);
    return Status::ParseError(
        msg + " at offset " + std::to_string(at) + " in XPath '" +
        (begin > 0 ? "..." : "") +
        std::string(text_.substr(begin, end - begin)) +
        (end < text_.size() ? "..." : "") + "'");
  }

  Result<Axis> ParseAxis() {
    if (Consume("//")) return Axis::kDescendant;
    if (Consume("/")) return Axis::kChild;
    return Error("expected '/' or '//'");
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    if (!AtEnd() && Peek() == '@') ++pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name test");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Accepts either quote style ("..." or '...'); the literal runs to the
  /// matching quote, so the other quote character and whitespace may appear
  /// inside it unescaped.
  Result<std::string> ParseString() {
    SkipSpace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected a quoted string");
    }
    const char quote = Peek();
    const size_t quote_pos = pos_;
    ++pos_;
    size_t end = text_.find(quote, pos_);
    if (end == std::string_view::npos) {
      return Error("unterminated string", quote_pos);
    }
    std::string value(text_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return value;
  }

  /// Parses a name test or '*' and adds it as a child of `parent` (the
  /// root when kNoParent).
  Result<uint32_t> ParseNodeTest(uint32_t parent, Axis axis) {
    SkipSpace();
    const bool star = Consume("*");
    LabelId label = kInvalidLabel;
    if (!star) {
      PRIX_ASSIGN_OR_RETURN(std::string name, ParseName());
      label = dict_->Intern(name);
    }
    return parent == TwigPattern::kNoParent
               ? twig_.AddRoot(label, axis, star)
               : twig_.AddChild(parent, label, axis, star);
  }

  /// Parses a quoted string and adds it as a value child of `node`.
  Status AddValue(uint32_t node) {
    PRIX_ASSIGN_OR_RETURN(std::string value, ParseString());
    twig_.AddChild(node, dict_->Intern(value), Axis::kChild,
                   /*is_star=*/false, /*is_value=*/true);
    return Status::OK();
  }

  std::string_view text_;
  TagDictionary* dict_;
  TwigPattern twig_;
  size_t pos_ = 0;
};

}  // namespace

Result<TwigPattern> ParseXPath(std::string_view xpath, TagDictionary* dict) {
  Parser parser(xpath, dict);
  return parser.Run();
}

}  // namespace prix
