#include "xml/xml_parser.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace prix {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

}  // namespace

Result<Document> ParseXml(std::string_view text, TagDictionary* dict,
                          XmlParseOptions options) {
  XmlParser parser(dict, options);
  return parser.Parse(text);
}

Result<Document> XmlParser::Parse(std::string_view text) {
  text_ = text;
  pos_ = 0;
  doc_ = Document();
  PRIX_RETURN_NOT_OK(ParseProlog());
  SkipWhitespace();
  if (AtEnd() || Peek() != '<') {
    return Error("expected root element");
  }
  PRIX_RETURN_NOT_OK(ParseElement());
  PRIX_RETURN_NOT_OK(SkipMisc());
  SkipWhitespace();
  if (!AtEnd()) return Error("trailing content after root element");
  PRIX_RETURN_NOT_OK(CheckDocumentDepth(doc_));
  return std::move(doc_);
}

Status XmlParser::ParseProlog() {
  while (true) {
    SkipWhitespace();
    if (Lookahead("<?")) {
      PRIX_RETURN_NOT_OK(SkipProcessingInstruction());
    } else if (Lookahead("<!--")) {
      PRIX_RETURN_NOT_OK(SkipComment());
    } else if (Lookahead("<!DOCTYPE")) {
      PRIX_RETURN_NOT_OK(SkipDoctype());
    } else {
      return Status::OK();
    }
  }
}

Status XmlParser::SkipMisc() {
  while (true) {
    SkipWhitespace();
    if (Lookahead("<?")) {
      PRIX_RETURN_NOT_OK(SkipProcessingInstruction());
    } else if (Lookahead("<!--")) {
      PRIX_RETURN_NOT_OK(SkipComment());
    } else {
      return Status::OK();
    }
  }
}

Status XmlParser::ParseElement() {
  PRIX_DCHECK(Peek() == '<');
  // Iterative, so input nesting cannot exhaust the call stack: `open` holds
  // the elements whose end tag is still to come, innermost last.
  struct OpenElement {
    NodeId node;
    std::string name;
    std::string pending_text;  ///< character data not yet flushed
  };
  std::vector<OpenElement> open;
  // Parses the start tag at pos_ and opens the element unless self-closing.
  auto start_tag = [&]() -> Status {
    ++pos_;  // consume '<'
    PRIX_ASSIGN_OR_RETURN(std::string name, ParseName());
    LabelId label = dict_->Intern(name);
    NodeId element = open.empty() ? doc_.AddRoot(label)
                                  : doc_.AddChild(open.back().node, label);
    bool self_closing = false;
    PRIX_RETURN_NOT_OK(ParseAttributes(element, &self_closing));
    if (!self_closing) {
      open.push_back(OpenElement{element, std::move(name), {}});
    }
    return Status::OK();
  };
  auto flush_text = [&](OpenElement* top) -> Status {
    if (top->pending_text.empty()) return Status::OK();
    PRIX_ASSIGN_OR_RETURN(std::string decoded, DecodeText(top->pending_text));
    AddTextNode(top->node, decoded);
    top->pending_text.clear();
    return Status::OK();
  };
  PRIX_RETURN_NOT_OK(start_tag());
  while (!open.empty()) {
    OpenElement* top = &open.back();
    if (AtEnd()) return Error("unexpected end of input in element content");
    if (Consume("</")) {
      PRIX_RETURN_NOT_OK(flush_text(top));
      PRIX_ASSIGN_OR_RETURN(std::string end_name, ParseName());
      if (end_name != top->name) {
        return Error("mismatched end tag </" + end_name + "> for <" +
                     top->name + ">");
      }
      SkipWhitespace();
      if (AtEnd() || Peek() != '>') return Error("expected '>' in end tag");
      ++pos_;
      open.pop_back();
    } else if (Lookahead("<!--")) {
      PRIX_RETURN_NOT_OK(SkipComment());
    } else if (Lookahead("<![CDATA[")) {
      pos_ += 9;
      size_t end = text_.find("]]>", pos_);
      if (end == std::string_view::npos) return Error("unterminated CDATA");
      // CDATA content is literal; bypass entity decoding by adding directly.
      PRIX_RETURN_NOT_OK(flush_text(top));
      AddTextNode(top->node, text_.substr(pos_, end - pos_));
      pos_ = end + 3;
    } else if (Lookahead("<?")) {
      PRIX_RETURN_NOT_OK(SkipProcessingInstruction());
    } else if (Peek() == '<') {
      PRIX_RETURN_NOT_OK(flush_text(top));
      PRIX_RETURN_NOT_OK(start_tag());
    } else {
      top->pending_text += Peek();
      ++pos_;
    }
  }
  return Status::OK();
}

Status XmlParser::ParseAttributes(NodeId element, bool* self_closing) {
  *self_closing = false;
  while (true) {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input in tag");
    if (Consume("/>")) {
      *self_closing = true;
      return Status::OK();
    }
    if (Peek() == '>') {
      ++pos_;
      return Status::OK();
    }
    PRIX_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
    SkipWhitespace();
    if (!Consume("=")) return Error("expected '=' after attribute name");
    SkipWhitespace();
    PRIX_ASSIGN_OR_RETURN(std::string raw_value, ParseQuotedValue());
    PRIX_ASSIGN_OR_RETURN(std::string value, DecodeText(raw_value));
    if (options_.attributes_as_subelements) {
      NodeId attr_node = doc_.AddChild(element, dict_->Intern("@" + attr_name));
      doc_.AddChild(attr_node, dict_->Intern(value), NodeKind::kValue);
    }
  }
}

void XmlParser::AddTextNode(NodeId parent, std::string_view text) {
  std::string_view content =
      options_.keep_whitespace_text ? text : TrimWhitespace(text);
  if (content.empty()) return;
  doc_.AddChild(parent, dict_->Intern(content), NodeKind::kValue);
}

Status XmlParser::SkipComment() {
  PRIX_DCHECK(Lookahead("<!--"));
  size_t end = text_.find("-->", pos_ + 4);
  if (end == std::string_view::npos) return Error("unterminated comment");
  pos_ = end + 3;
  return Status::OK();
}

Status XmlParser::SkipProcessingInstruction() {
  PRIX_DCHECK(Lookahead("<?"));
  size_t end = text_.find("?>", pos_ + 2);
  if (end == std::string_view::npos) {
    return Error("unterminated processing instruction");
  }
  pos_ = end + 2;
  return Status::OK();
}

Status XmlParser::SkipDoctype() {
  PRIX_DCHECK(Lookahead("<!DOCTYPE"));
  // Skip to the matching '>' accounting for an optional internal subset [...].
  int bracket_depth = 0;
  for (size_t i = pos_; i < text_.size(); ++i) {
    char c = text_[i];
    if (c == '[') {
      ++bracket_depth;
    } else if (c == ']') {
      --bracket_depth;
    } else if (c == '>' && bracket_depth == 0) {
      pos_ = i + 1;
      return Status::OK();
    }
  }
  return Error("unterminated DOCTYPE");
}

Result<std::string> XmlParser::ParseName() {
  if (AtEnd() || !IsNameStartChar(Peek())) {
    return Error("expected XML name");
  }
  size_t start = pos_;
  while (!AtEnd() && IsNameChar(Peek())) ++pos_;
  return std::string(text_.substr(start, pos_ - start));
}

Result<std::string> XmlParser::ParseQuotedValue() {
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return Error("expected quoted attribute value");
  }
  char quote = Peek();
  ++pos_;
  size_t end = text_.find(quote, pos_);
  if (end == std::string_view::npos) return Error("unterminated attribute");
  std::string value(text_.substr(pos_, end - pos_));
  pos_ = end + 1;
  return value;
}

Result<std::string> XmlParser::DecodeText(std::string_view raw) const {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      out += raw[i++];
      continue;
    }
    size_t semi = raw.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      int base = 10;
      std::string digits(entity.substr(1));
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      char* endptr = nullptr;
      long code = std::strtol(digits.c_str(), &endptr, base);
      if (endptr == digits.c_str() || *endptr != '\0' || code <= 0 ||
          code > 0x10ffff) {
        return Status::ParseError("bad character reference &" +
                                  std::string(entity) + ";");
      }
      // UTF-8 encode the code point.
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
      } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
      } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
      }
    } else {
      // Unknown entity: keep it verbatim (non-validating parser).
      out += '&';
      out += entity;
      out += ';';
    }
    i = semi + 1;
  }
  return out;
}

bool XmlParser::Lookahead(std::string_view token) const {
  return text_.substr(pos_, token.size()) == token;
}

bool XmlParser::Consume(std::string_view token) {
  if (!Lookahead(token)) return false;
  pos_ += token.size();
  return true;
}

void XmlParser::SkipWhitespace() {
  while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
}

Status XmlParser::Error(std::string msg) const {
  // Report 1-based line/column for the current position.
  size_t line = 1, col = 1;
  for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return Status::ParseError(msg + " at line " + std::to_string(line) +
                            ", column " + std::to_string(col));
}

}  // namespace prix
