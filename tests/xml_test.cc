#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "testutil/mutate.h"
#include "xml/document.h"
#include "xml/tag_dictionary.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace prix {
namespace {

TEST(TagDictionaryTest, InternIsIdempotent) {
  TagDictionary dict;
  LabelId a = dict.Intern("book");
  LabelId b = dict.Intern("author");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("book"), a);
  EXPECT_EQ(dict.Name(a), "book");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TagDictionaryTest, FindUnknownReturnsSentinel) {
  TagDictionary dict;
  EXPECT_EQ(dict.Find("nope"), kInvalidLabel);
  dict.Intern("yes");
  EXPECT_NE(dict.Find("yes"), kInvalidLabel);
}

TEST(DocumentTest, PostorderMatchesManualCount) {
  TagDictionary dict;
  Document doc(0);
  NodeId root = doc.AddRoot(dict.Intern("a"));
  NodeId b = doc.AddChild(root, dict.Intern("b"));
  NodeId c = doc.AddChild(root, dict.Intern("c"));
  NodeId d = doc.AddChild(b, dict.Intern("d"));
  auto post = doc.ComputePostorder();
  EXPECT_EQ(post[d], 1u);
  EXPECT_EQ(post[b], 2u);
  EXPECT_EQ(post[c], 3u);
  EXPECT_EQ(post[root], 4u);
  auto inv = doc.ComputePostorderInverse();
  EXPECT_EQ(inv[1], d);
  EXPECT_EQ(inv[4], root);
}

TEST(DocumentTest, DepthsAndCounts) {
  TagDictionary dict;
  Document doc(0);
  NodeId root = doc.AddRoot(dict.Intern("a"));
  NodeId b = doc.AddChild(root, dict.Intern("b"));
  doc.AddChild(b, dict.Intern("v"), NodeKind::kValue);
  EXPECT_EQ(doc.MaxDepth(), 3u);
  EXPECT_EQ(doc.CountElements(), 2u);
  EXPECT_EQ(doc.CountValues(), 1u);
}

TEST(DocumentTest, SplitIntoRecords) {
  TagDictionary dict;
  Document doc(0);
  NodeId root = doc.AddRoot(dict.Intern("dblp"));
  NodeId r1 = doc.AddChild(root, dict.Intern("article"));
  doc.AddChild(r1, dict.Intern("title"));
  NodeId r2 = doc.AddChild(root, dict.Intern("www"));
  doc.AddChild(r2, dict.Intern("url"));
  doc.AddChild(r2, dict.Intern("editor"));
  auto records = SplitIntoRecords(doc);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].num_nodes(), 2u);
  EXPECT_EQ(records[1].num_nodes(), 3u);
  EXPECT_EQ(dict.Name(records[1].label(records[1].root())), "www");
}

TEST(XmlParserTest, SimpleDocument) {
  TagDictionary dict;
  auto result = ParseXml("<a><b>hello</b><c/></a>", &dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Document& doc = *result;
  EXPECT_EQ(doc.num_nodes(), 4u);
  EXPECT_EQ(dict.Name(doc.label(doc.root())), "a");
  NodeId b = doc.children(doc.root())[0];
  EXPECT_EQ(dict.Name(doc.label(b)), "b");
  NodeId text = doc.children(b)[0];
  EXPECT_EQ(doc.kind(text), NodeKind::kValue);
  EXPECT_EQ(dict.Name(doc.label(text)), "hello");
}

TEST(XmlParserTest, AttributesBecomeSubelements) {
  TagDictionary dict;
  auto result = ParseXml(R"(<book isbn="123"><title>X</title></book>)", &dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Document& doc = *result;
  NodeId attr = doc.children(doc.root())[0];
  EXPECT_EQ(dict.Name(doc.label(attr)), "@isbn");
  EXPECT_EQ(dict.Name(doc.label(doc.children(attr)[0])), "123");
}

TEST(XmlParserTest, EntityDecoding) {
  TagDictionary dict;
  auto result = ParseXml("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>", &dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Document& doc = *result;
  EXPECT_EQ(dict.Name(doc.label(doc.children(doc.root())[0])),
            "x & y <z> AB");
}

TEST(XmlParserTest, CdataKeptVerbatim) {
  TagDictionary dict;
  auto result = ParseXml("<a><![CDATA[1 < 2 && 3 > 2]]></a>", &dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Document& doc = *result;
  EXPECT_EQ(dict.Name(doc.label(doc.children(doc.root())[0])),
            "1 < 2 && 3 > 2");
}

TEST(XmlParserTest, PrologCommentsDoctypeSkipped) {
  TagDictionary dict;
  auto result = ParseXml(
      "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
      "<!-- comment -->\n<a><!-- inner --><b/></a>\n<!-- trailing -->",
      &dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_nodes(), 2u);
}

TEST(XmlParserTest, MismatchedTagIsError) {
  TagDictionary dict;
  auto result = ParseXml("<a><b></a></b>", &dict);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
}

TEST(XmlParserTest, TruncatedInputIsError) {
  TagDictionary dict;
  EXPECT_FALSE(ParseXml("<a><b>", &dict).ok());
  EXPECT_FALSE(ParseXml("<a attr=>", &dict).ok());
  EXPECT_FALSE(ParseXml("", &dict).ok());
}

TEST(XmlParserTest, TrailingGarbageIsError) {
  TagDictionary dict;
  EXPECT_FALSE(ParseXml("<a/><b/>", &dict).ok());
}

TEST(XmlParserTest, WhitespaceTextDropped) {
  TagDictionary dict;
  auto result = ParseXml("<a>\n  <b/>\n  </a>", &dict);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_nodes(), 2u);
}

TEST(XmlParserTest, ErrorsCarryLineNumbers) {
  TagDictionary dict;
  auto result = ParseXml("<a>\n<b>\n</c>\n</a>", &dict);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("line 3"), std::string::npos)
      << result.status().ToString();
}

// `<r>` over a chain of `<a>` elements: `depth` levels of nodes in all.
std::string Chain(uint32_t depth) {
  std::string xml = "<r>";
  for (uint32_t i = 2; i < depth; ++i) xml += "<a>";
  xml += "<a/>";
  for (uint32_t i = 2; i < depth; ++i) xml += "</a>";
  return xml + "</r>";
}

TEST(XmlParserTest, DepthLimitIsInclusive) {
  // The 8,000-deep chain used to stress the range descent must still parse.
  EXPECT_GE(kMaxDocumentDepth, 8192u);
  TagDictionary dict;
  auto at_limit = ParseXml(Chain(kMaxDocumentDepth), &dict);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->MaxDepth(), kMaxDocumentDepth);

  auto over = ParseXml(Chain(kMaxDocumentDepth + 1), &dict);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument)
      << over.status().ToString();
  EXPECT_NE(over.status().ToString().find(
                std::to_string(kMaxDocumentDepth + 1) + " levels deep"),
            std::string::npos)
      << over.status().ToString();

  // Value and attribute nodes are levels too: a text leaf under the
  // deepest element of a limit-deep chain goes one past.
  std::string text_leaf = Chain(kMaxDocumentDepth);
  text_leaf.replace(text_leaf.find("<a/>"), 4, "<a>x</a>");
  EXPECT_EQ(ParseXml(text_leaf, &dict).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(XmlParserTest, FarTooDeepInputIsRefusedNotACrash) {
  TagDictionary dict;
  auto deep = ParseXml(Chain(200000), &dict);
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument)
      << deep.status().ToString();
  // Unbalanced deep input is a parse error, found without recursion.
  std::string unclosed = Chain(200000);
  unclosed.resize(unclosed.size() / 2);
  EXPECT_EQ(ParseXml(unclosed, &dict).status().code(),
            StatusCode::kParseError);
}

TEST(XmlParserTest, MutatedDocumentsParseOrFailWithATypedStatus) {
  // Seeded byte-mutation sweep: every mutant of a small seed document
  // parses, or fails with ParseError (bad syntax) or InvalidArgument (too
  // deep); a document that parses is no deeper than kMaxDocumentDepth.
  // The limit-deep chain makes depth-changing mutants likely.
  const std::string seeds[] = {
      "<a><b>text</b><c x=\"1\" y='2'/></a>",
      "<?xml version=\"1.0\"?><!DOCTYPE r [<!ENTITY e \"v\">]><!-- c -->"
      "<r><?pi x?><s>&lt;&amp;&#65;&#x42;</s></r>",
      "<r><![CDATA[<not>&markup;]]><t a=\"&quot;\">x y</t>tail</r>",
      "<dblp><article key=\"k\"><author>A</author><title>T</title>"
      "<year>1990</year></article></dblp>",
      Chain(kMaxDocumentDepth),
  };
  Random rng(20261018);
  size_t parsed = 0, refused = 0;
  for (const std::string& seed : seeds) {
    const int mutants = seed.size() > 1000 ? 200 : 4000;
    for (int m = 0; m < mutants; ++m) {
      const std::string text =
          testutil::MutateBytes(rng, seed, "<>/&;#=\"'![]?- x");
      TagDictionary dict;
      auto doc = ParseXml(text, &dict);
      if (doc.ok()) {
        ++parsed;
        ASSERT_GT(doc->num_nodes(), 0u);
        ASSERT_LE(doc->MaxDepth(), kMaxDocumentDepth) << text.substr(0, 200);
        ASSERT_TRUE(CheckDocumentDepth(*doc).ok());
        continue;
      }
      ++refused;
      const StatusCode code = doc.status().code();
      ASSERT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << doc.status().ToString() << " for " << text.substr(0, 200);
      ASSERT_FALSE(doc.status().message().empty());
    }
  }
  // Both outcomes must occur, or the sweep tests nothing.
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(refused, 500u);
}

TEST(XmlWriterTest, RoundTripPreservesStructure) {
  TagDictionary dict;
  std::string xml =
      R"(<lib genre="cs"><book><title>A &amp; B</title><year>1999</year></book><empty/></lib>)";
  auto doc1 = ParseXml(xml, &dict);
  ASSERT_TRUE(doc1.ok());
  std::string emitted = WriteXml(*doc1, dict);
  auto doc2 = ParseXml(emitted, &dict);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString() << "\n" << emitted;
  ASSERT_EQ(doc1->num_nodes(), doc2->num_nodes());
  for (NodeId v = 0; v < doc1->num_nodes(); ++v) {
    EXPECT_EQ(doc1->label(v), doc2->label(v));
    EXPECT_EQ(doc1->kind(v), doc2->kind(v));
    EXPECT_EQ(doc1->parent(v), doc2->parent(v));
  }
}

TEST(XmlWriterTest, EscapesSpecials) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

}  // namespace
}  // namespace prix
