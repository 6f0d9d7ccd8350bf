#ifndef PRIX_QUERY_XPATH_PARSER_H_
#define PRIX_QUERY_XPATH_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "query/twig_pattern.h"

namespace prix {

/// Parses the XPath subset used by the paper's queries (Table 3) into a
/// TwigPattern:
///
///   path       := ('/' | '//') step ( ('/' | '//') step )*
///   step       := (NAME | '*' | '@'NAME) predicate*
///   predicate  := '[' predExpr ']'
///   predExpr   := '.' ( ('/'|'//') step )* ( '=' STRING )?
///               | 'text()' '=' STRING
///   STRING     := '"' chars '"' | "'" chars "'"
///
/// Whitespace between tokens is insignificant (XPath 1.0 ExprWhitespace);
/// only quoted string literals preserve it. Parse errors carry the byte
/// offset of the offending character. Predicates nest at most
/// kMaxDocumentDepth levels (xml/document.h); deeper nesting is a
/// ParseError.
///
/// Examples: //inproceedings[./author="Jim Gray"][./year="1990"],
/// //inproceedings[ ./author = 'Jim Gray' ], //S//NP/SYM,
/// //NP[./RBR_OR_JJR]/PP, //title[text()="Semantic..."].
///
/// Labels are interned into `dict`; a value string never seen in the data
/// interns a fresh id and simply matches nothing.
Result<TwigPattern> ParseXPath(std::string_view xpath, TagDictionary* dict);

}  // namespace prix

#endif  // PRIX_QUERY_XPATH_PARSER_H_
