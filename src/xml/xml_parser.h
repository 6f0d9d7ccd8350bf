#ifndef PRIX_XML_XML_PARSER_H_
#define PRIX_XML_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/document.h"

namespace prix {

/// Options controlling XML-to-tree conversion.
struct XmlParseOptions {
  /// Represent each attribute as a subelement named "@attr" with a value
  /// child, as the paper prescribes (Sec. 2: "An attribute is usually
  /// represented as a subelement of an element").
  bool attributes_as_subelements = true;
  /// Keep text nodes that consist solely of whitespace.
  bool keep_whitespace_text = false;
};

/// A non-validating XML parser producing a Document whose labels are
/// interned in `dict`. Supports elements, attributes, character data, CDATA
/// sections, comments, processing instructions, a DOCTYPE declaration, and
/// the predefined + numeric character entities. Namespaces are kept verbatim
/// in tag names (prefix:local). Open elements live on an explicit stack, so
/// nesting costs heap, not call stack; a document deeper than
/// kMaxDocumentDepth is refused with InvalidArgument.
class XmlParser {
 public:
  explicit XmlParser(TagDictionary* dict, XmlParseOptions options = {})
      : dict_(dict), options_(options) {}

  /// Parses a complete document with a single root element.
  Result<Document> Parse(std::string_view text);

 private:
  Status ParseProlog();
  /// Parses the root element and everything inside it.
  Status ParseElement();
  Status ParseAttributes(NodeId element, bool* self_closing);
  Status SkipMisc();
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status SkipDoctype();
  Result<std::string> ParseName();
  Result<std::string> ParseQuotedValue();
  /// Decodes entities in raw character data.
  Result<std::string> DecodeText(std::string_view raw) const;
  void AddTextNode(NodeId parent, std::string_view text);

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Lookahead(std::string_view token) const;
  bool Consume(std::string_view token);
  void SkipWhitespace();
  Status Error(std::string msg) const;

  TagDictionary* dict_;
  XmlParseOptions options_;
  std::string_view text_;
  size_t pos_ = 0;
  Document doc_;
};

/// Convenience wrapper: parse one document.
Result<Document> ParseXml(std::string_view text, TagDictionary* dict,
                          XmlParseOptions options = {});

}  // namespace prix

#endif  // PRIX_XML_XML_PARSER_H_
