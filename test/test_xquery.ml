(* Semantics of the XQuery engine (the Galax substitute), exercised through
   source queries against a fixed bibliography document. *)

let bib_src =
  {|<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
  <book year="1999"><title>Economics of Technology</title><author>Gecsei</author><price>129.95</price></book>
</bib>|}

let bib = lazy (Xmlkit.Parser.parse_document ~uri:"bib.xml" bib_src)

let run src =
  let doc = Lazy.force bib in
  let resolve_doc u = if u = "bib.xml" then Some doc else None in
  Xquery.Eval.run_string ~resolve_doc ~context_node:doc src

let display src = Xquery.Value.to_display_string (run src)

let check_q msg expected src = Alcotest.check Alcotest.string msg expected (display src)

let test_arithmetic () =
  check_q "precedence" "7" "1 + 2 * 3";
  check_q "div" "2.5" "5 div 2";
  check_q "idiv" "2" "5 idiv 2";
  check_q "mod" "1" "5 mod 2";
  check_q "unary minus" "-3" "-(1 + 2)";
  check_q "range" "1 2 3 4" "1 to 4";
  check_q "empty range" "" "4 to 1";
  check_q "float math" "3.5" "1.5 + 2"

let test_comparisons () =
  check_q "general eq over seq" "true" "(1, 2, 3) = 2";
  check_q "general eq false" "false" "(1, 2, 3) = 5";
  check_q "string vs number promote" "true" "'42' = 42";
  check_q "value lt" "true" "1 lt 2";
  check_q "value empty gives empty" "" "() eq 1";
  check_q "ne existential" "true" "(1, 2) != 1"

let test_logic () =
  check_q "and" "false" "true() and false()";
  check_q "or" "true" "true() or false()";
  check_q "not" "true" "not(0)";
  check_q "ebv of nodes" "y" "if (//book) then 'y' else 'n'"

let test_paths () =
  check_q "count descendant" "3" "count(//book)";
  check_q "attribute test" "2" "count(//book[@year > 1995])";
  check_q "predicate position" "Data on the Web" "string((//book)[2]/title)";
  check_q "position()=last()" "Economics of Technology"
    "string(//book[position() = last()]/title)";
  check_q "parent step" "1" "count(//author[. = 'Stevens']/..)";
  check_q "text()" "TCP/IP Illustrated" "string((//title/text())[1])";
  check_q "wildcard" "10" "count(//book/*)";
  check_q "union dedups" "1" "count(//book/.. | //bib)"

let test_axes () =
  check_q "ancestor root name" "bib"
    "string(fn:name((//author)[1]/ancestor::*[last()]))";
  check_q "following-sibling" "2"
    "count((//book)[1]/following-sibling::book)";
  check_q "preceding-sibling" "2"
    "count((//book)[3]/preceding-sibling::book)";
  check_q "self" "1" "count((//book)[1]/self::book)";
  check_q "self name test miss" "0" "count((//book)[1]/self::title)";
  check_q "descendant-or-self" "4" "count(//bib/descendant-or-self::*[self::bib or self::book])"

(* Positional predicates after "//" filter each parent's children, so
   they must not be evaluated as one descendant step; non-positional ones
   give the same answer either way.  Expected values are read off the
   document by hand. *)
let shelf_src =
  {|<lib id="l"><book id="b1"><p id="p1"/><section id="s1"><p id="p2"/><p id="p3"/><p id="p4"/></section><section id="s2"><p id="p5"/></section></book><book id="b2"><section id="s3"><p id="p6"/><p id="p7"/></section><p id="p8"/></book></lib>|}

let shelf = lazy (Xmlkit.Parser.parse_document ~uri:"shelf.xml" shelf_src)

let ids src =
  let doc = Lazy.force shelf in
  Xquery.Value.to_display_string
    (Xquery.Eval.run_string ~context_node:doc
       (Printf.sprintf "for $x in %s return string($x/@id)" src))

let check_ids msg expected src =
  Alcotest.check Alcotest.string msg expected (ids src)

let test_positional_paths () =
  check_ids "//p[1] is the first p of each parent" "p1 p2 p5 p6 p8" "//p[1]";
  check_ids "(//p)[1] is one node" "p1" "(//p)[1]";
  check_ids "/descendant::p[1] is one node" "p1" "/descendant::p[1]";
  check_ids "(//p)[last()]" "p8" "(//p)[last()]";
  check_ids "//section[last()] per parent" "s2 s3" "//section[last()]";
  check_ids "//p[position() = 2] per parent" "p3 p7" "//p[position() = 2]";
  check_ids "//p[$n] with an integer $n" "p3 p7"
    "(let $n := 2 return //p[$n])";
  check_ids "//p[$n] with $n = 3" "p4" "(let $n := 3 return //p[$n])";
  check_ids "//*[1] per parent" "l b1 p1 p2 p5 s3 p6" "//*[1]";
  check_ids "//p[1][@id = 'p6']" "p6" "//p[1][@id = 'p6']";
  check_ids "non-positional count predicate" "b1" "//book[count(.//p) > 3]";
  check_ids "non-positional attribute predicate" "p3" "//p[@id = 'p3']";
  check_ids "non-positional path predicate" "s1 s2 s3" "//section[p]";
  check_ids "//section//p[1]" "p2 p5 p6" "//section//p[1]";
  check_ids "nested positional inside a boolean" "b1"
    "//book[section[2]]";
  (* preceding is a reverse axis: positions count from the nearest node *)
  check_ids "preceding::p[1] is the nearest" "p3" "(//p)[4]/preceding::p[1]";
  check_ids "preceding::p[2]" "p2" "(//p)[4]/preceding::p[2]";
  check_ids "preceding of an attribute" "p3" "(//p)[4]/@id/preceding::p[1]";
  (* an element's descendants follow its attributes *)
  check_ids "following of an attribute" "p2 p3 p4 p5 p6 p7 p8"
    "(//section)[1]/@id/following::p";
  check_ids "following::p[1]" "p5" "(//section)[1]/following::p[1]"

let test_flwor () =
  check_q "where + order by" "TCP/IP Illustrated Data on the Web"
    "string-join(for $b in //book where $b/price < 70 order by $b/title descending return string($b/title), ' ')";
  check_q "let" "6" "let $x := (1, 2, 3) return sum($x)";
  check_q "positional var" "1:1994 2:2000 3:1999"
    "string-join(for $b at $i in //book return concat($i, ':', $b/@year), ' ')";
  check_q "order by numeric" "39.95 65.95 129.95"
    "string-join(for $p in //price order by number($p) return string($p), ' ')";
  check_q "multiple for = product" "4"
    "count(for $x in (1,2), $y in ('a','b') return concat($x, $y))"

let test_quantifiers () =
  check_q "some true" "true" "some $b in //book satisfies $b/author = 'Stevens'";
  check_q "some false" "false" "some $b in //book satisfies $b/price > 1000";
  check_q "every true" "true" "every $b in //book satisfies $b/price > 30";
  check_q "every false" "false" "every $b in //book satisfies count($b/author) = 1";
  check_q "nested bindings" "true"
    "some $b in //book, $a in $b/author satisfies $a = 'Buneman'"

let test_constructors () =
  check_q "attr template" "<r n=\"3\"/>" "<r n=\"{count(//book)}\"/>";
  check_q "content expr copies node" "<w><title>TCP/IP Illustrated</title></w>"
    "<w>{(//title)[1]}</w>";
  check_q "atomics joined with spaces" "<s>1 2 3</s>" "<s>{1, 2, 3}</s>";
  check_q "nested constructors" "<o><i>x</i></o>" "<o><i>x</i></o>";
  check_q "boundary space stripped" "<o><i/></o>" "<o> <i/> </o>";
  check_q "computed element" "<r><x>1</x></r>"
    "element r { element x { 1 } }";
  check_q "computed element dynamic name" "<dyn>v</dyn>"
    "element {concat('d', 'yn')} { 'v' }";
  check_q "computed attribute" "<r k=\"a b\"/>"
    "element r { attribute k { ('a', 'b') } }";
  check_q "computed text" "<r>1 2</r>" "element r { text { (1, 2) } }"

let test_functions () =
  check_q "concat" "abc" "concat('a', 'b', 'c')";
  check_q "contains" "true" "contains('usability', 'sab')";
  check_q "starts/ends" "true true"
    "(starts-with('abc', 'ab'), ends-with('abc', 'bc'))";
  check_q "substring" "bcd" "substring('abcde', 2, 3)";
  check_q "lower/upper" "abc ABC" "(lower-case('AbC'), upper-case('aBc'))";
  check_q "normalize-space" "a b" "normalize-space('  a   b  ')";
  check_q "translate" "ABr" "translate('bar', 'ab', 'BA')";
  check_q "matches" "true" "matches('usability', 'us.*ty')";
  check_q "replace" "non immigrant" "replace('non-immigrant', '-', ' ')";
  check_q "tokenize keeps empties" "a|b||c"
    "string-join(tokenize('a,b,,c', ','), '|')";
  check_q "string-join" "x;y" "string-join(('x','y'), ';')";
  check_q "substring-after" "c" "substring-after('a=b=c', 'b=')";
  check_q "substring-before" "a" "substring-before('a=b', '=')";
  check_q "distinct-values" "3" "count(distinct-values((1, 2, 2, 3)))";
  check_q "index-of" "2" "string(index-of(('a','b','c'), 'b'))";
  check_q "subsequence" "b c" "string-join(subsequence(('a','b','c','d'), 2, 2), ' ')";
  check_q "reverse" "c b a" "string-join(reverse(('a','b','c')), ' ')";
  check_q "sum avg" "6 2" "(sum((1,2,3)), avg((1,2,3)))";
  check_q "min max" "1 3" "(min((3,1,2)), max((3,1,2)))";
  check_q "round floor ceiling" "3 2 3" "(round(2.6), floor(2.6), ceiling(2.2))";
  check_q "doc" "3" "count(doc('bib.xml')//book)";
  check_q "local-name strips prefix" "x" "local-name(<fts:x/>)";
  check_q "exists/empty" "true false" "(exists(//book), empty(//book))";
  check_q "compare" "-1 0 1"
    "(compare('a', 'b'), compare('x', 'x'), compare('b', 'a'))";
  check_q "codepoints round trip" "abc"
    "codepoints-to-string(string-to-codepoints('abc'))";
  check_q "string-to-codepoints" "97 98" "string-to-codepoints('ab')";
  check_q "deep-equal true" "true" "deep-equal(<a x=\"1\"><b/>t</a>, <a x=\"1\"><b/>t</a>)";
  check_q "deep-equal attr differs" "false" "deep-equal(<a x=\"1\"/>, <a x=\"2\"/>)";
  check_q "deep-equal atomics" "true" "deep-equal((1, 'a'), (1, 'a'))";
  check_q "deep-equal length" "false" "deep-equal((1, 2), (1))"

let test_user_functions () =
  check_q "simple function" "42"
    "declare function local:double($x) { $x * 2 }; local:double(21)";
  check_q "recursion" "120"
    "declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) }; local:fact(5)";
  check_q "mutual composition" "8"
    "declare function local:inc($x) { $x + 1 }; declare function local:twice($x) { local:inc(local:inc($x)) }; local:twice(6)";
  check_q "declared variable" "15" "declare variable $base := 10; $base + 5";
  check_q "function over sequences" "3"
    "declare function local:len($s) { count($s) }; local:len((1, 2, 3))"

let test_errors () =
  let expect_error src =
    match run src with
    | exception Xquery.Errors.Error _ -> ()
    | _ -> Alcotest.failf "expected a dynamic error for %s" src
  in
  expect_error "$undefined_variable";
  expect_error "unknown:function(1)";
  expect_error "doc('missing.xml')";
  expect_error "1 + (1, 2)"

let test_parse_errors () =
  let expect_parse_error src =
    match Xquery.Parser.parse_query src with
    | exception Xquery.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_parse_error "for $x in";
  expect_parse_error "1 +";
  expect_parse_error "//book[";
  expect_parse_error "let $x = 3 return $x";
  expect_parse_error "if (1) then 2";
  expect_parse_error "some $x in (1,2)"

let test_focus_errors () =
  match Xquery.Eval.run_string "//book" with
  | exception Xquery.Errors.Error { code = Xquery.Errors.XPDY0002; _ } -> ()
  | _ -> Alcotest.fail "path with no context should fail"

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "paths" `Quick test_paths;
    Alcotest.test_case "axes" `Quick test_axes;
    Alcotest.test_case "positional paths" `Quick test_positional_paths;
    Alcotest.test_case "flwor" `Quick test_flwor;
    Alcotest.test_case "quantifiers" `Quick test_quantifiers;
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "builtin functions" `Quick test_functions;
    Alcotest.test_case "user functions" `Quick test_user_functions;
    Alcotest.test_case "dynamic errors" `Quick test_errors;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "no-focus errors" `Quick test_focus_errors;
  ]
