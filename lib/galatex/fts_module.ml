open Xmlkit

(* The GalaTex XQuery library module (paper Figure 4, upper right): every
   FTSelection primitive implemented as an XQuery function over the XML
   representation of AllMatches, fed by the XML inverted-list documents
   through fn:doc.  This is the paper's all-XQuery implementation strategy,
   run by our own engine.

   As in GalaTex, a handful of primitives come from the host engine rather
   than from XQuery: the Porter stemmer (galax:stem — Galax's built-in
   stemmer, Section 3.2.3.2), Dewey access for nodes (Galax kept node
   identifiers engine-side), diacritics folding and the special-character
   pattern builder.  Everything else — match option expansion, phrase
   matching, the Boolean/positional operators, scoring — is XQuery text,
   mirroring the code shown in Section 3.2.3.1. *)

let library_source =
  {xq|
module namespace fts = "http://galatex.sourceforge.net/fts";

(: ===== search-phrase tokenization (getSearchTokenInfo) ===== :)

declare function fts:tokens($phrase as xs:string) as xs:string* {
  for $t in fn:tokenize(fn:string($phrase), "[^a-zA-Z0-9]+")
  where $t != ""
  return $t
};

(: under wildcards / special characters the pattern characters belong to the
   token: split on whitespace only :)
declare function fts:tokensFor($phrase as xs:string, $mo as xs:string) as xs:string* {
  if (fts:opt($mo, "wildcards=on") or fts:opt($mo, "special=on")) then
    (for $t in fn:tokenize(fn:string($phrase), "[ \t\n\r]+")
     where $t != ""
     return $t)
  else fts:tokens($phrase)
};

declare function fts:opt($mo as xs:string, $flag as xs:string) as xs:boolean {
  fn:contains($mo, $flag)
};

(: normalize a word for index-key comparison under the match options :)
declare function fts:norm($w as xs:string, $mo as xs:string) as xs:string {
  let $cf := fn:lower-case($w)
  return if (fts:opt($mo, "diacritics=insensitive"))
         then fts:stripDiacritics($cf) else $cf
};

declare function fts:isStop($token as xs:string, $mo as xs:string) as xs:boolean {
  if (fn:contains($mo, "stoplist=")) then
    some $s in fn:tokenize(fn:substring-after($mo, "stoplist="), ",")
    satisfies fn:lower-case($s) = fn:lower-case($token)
  else if (fn:contains($mo, "stop=on")) then
    some $s in fn:doc("stopwords_default.xml")/StopWords/w
    satisfies fn:string($s) = fn:lower-case($token)
  else fn:false()
};

(: ===== match options (applyMatchOption, Section 3.2.3.2) ===== :)

declare function fts:thesaurusTerms($token as xs:string, $mo as xs:string) as xs:string* {
  if (fts:opt($mo, "thesaurus=off")) then fn:lower-case($token)
  else
    let $name := if (fts:opt($mo, "thesaurus=default")) then "default"
                 else fn:substring-before(fn:substring-after($mo, "thesaurus="), "|")
    let $cf := fn:lower-case($token)
    return distinct-values(
      ($cf,
       for $e in fn:doc(fn:concat("thesaurus_", $name, ".xml"))/Thesaurus/entry
       where fn:string($e/@from) = $cf
       return fn:string($e/@to)))
};

(: does distinct document word $dw match query term $term? — the paper's
   comparison loop over list_distinct_words.xml :)
declare function fts:keyMatches($dw as xs:string, $term as xs:string,
                                $mo as xs:string) as xs:boolean {
  let $w := fts:norm($dw, $mo)
  let $t := fts:norm($term, $mo)
  return
    if (fts:opt($mo, "wildcards=on")) then
      fn:matches($w, fn:concat("^", $t, "$"))
    else if (fts:opt($mo, "special=on")) then
      fn:matches($w, fn:concat("^", fts:specialCharsPattern($t), "$"))
    else if (fts:opt($mo, "stemming=on")) then
      galax:stem($w) = galax:stem($t)
    else $w = $t
};

declare function fts:expandToken($token as xs:string, $mo as xs:string) as xs:string* {
  let $terms := fts:thesaurusTerms($token, $mo)
  for $dw in fn:doc("list_distinct_words.xml")/ListDistinctWords/invlist/@word
  let $w := fn:string($dw)
  where some $term in $terms satisfies fts:keyMatches($w, $term, $mo)
  return $w
};

declare function fts:maybeDiac($w as xs:string, $mo as xs:string) as xs:string {
  if (fts:opt($mo, "diacritics=insensitive")) then fts:stripDiacritics($w) else $w
};

(: case sensitivity applies to the surface form recorded in the index :)
declare function fts:surfaceOk($surface as xs:string, $term as xs:string,
                               $mo as xs:string) as xs:boolean {
  if (fts:opt($mo, "case=insensitive")) then fn:true()
  else if (fts:opt($mo, "case=sensitive")) then
    (if (fts:opt($mo, "stemming=on") or fts:opt($mo, "wildcards=on"))
     then fn:true()
     else fts:maybeDiac($surface, $mo) = fts:maybeDiac($term, $mo))
  else if (fts:opt($mo, "case=lower")) then $surface = fn:lower-case($surface)
  else $surface = fn:upper-case($surface)
};

(: surface check against any thesaurus expansion of the token :)
declare function fts:surfaceOkAny($surface as xs:string, $token as xs:string,
                                  $mo as xs:string) as xs:boolean {
  if (fts:opt($mo, "thesaurus=off")) then fts:surfaceOk($surface, $token, $mo)
  else
    some $term in fts:thesaurusTerms($token, $mo)
    satisfies fts:surfaceOk($surface, $term, $mo)
};

(: ===== positions (getTokenInfo / getPositions / containsPos) ===== :)

declare function fts:containsPos($nodePrefix as xs:string, $pos as xs:string) as xs:boolean {
  $pos = $nodePrefix or fn:starts-with($pos, fn:concat($nodePrefix, "."))
};

declare function fts:posInNode($node as element(), $e as element()) as xs:boolean {
  fn:string($e/@doc) = fts:docOf($node)
  and fts:containsPos(fts:deweyOf($node), fn:string($e/@prefixPos))
};

(: all positions of one (expanded) search token within the evaluation
   context — the paper's getTokenInfo over the inverted-list documents :)
declare function fts:tokenPositions($evalCtx as element()*, $token as xs:string,
                                    $mo as xs:string) as element()* {
  for $w in fts:expandToken($token, $mo)
  for $pos in fn:doc(fn:concat("invlist_", $w, ".xml"))/fts:InvertedList/fts:TokenInfo
  where fts:surfaceOkAny(fn:string($pos/@word), $token, $mo)
    and (some $node in $evalCtx satisfies fts:posInNode($node, $pos))
  order by fn:string($pos/@doc) ascending, number($pos/@absPos) ascending
  return $pos
};

(: ===== phrase matching (FTSingleSearchToken generalized) ===== :)

declare function fts:keptTokens($tokens as xs:string*, $mo as xs:string) as xs:string* {
  for $t in $tokens where fn:not(fts:isStop($t, $mo)) return $t
};

(: allowed extra gap before each kept token = number of dropped stop tokens :)
declare function fts:gapsHelper($tokens as xs:string*, $mo as xs:string,
                                $pending as xs:integer) as xs:integer* {
  if (fn:empty($tokens)) then ()
  else if (fts:isStop($tokens[1], $mo)) then
    fts:gapsHelper($tokens[position() > 1], $mo, $pending + 1)
  else ($pending, fts:gapsHelper($tokens[position() > 1], $mo, 0))
};

declare function fts:addInclude($acc as element(), $pos as element(),
                                $queryPos as xs:integer) as element() {
  <fts:Match score="{number($acc/@score) * number($pos/@score)}">{
    $acc/*,
    <fts:StringInclude queryPos="{$queryPos}">{$pos}</fts:StringInclude>
  }</fts:Match>
};

declare function fts:extendPhrase($acc as element(), $prevPos as xs:integer,
                                  $doc as xs:string, $tokens as xs:string*,
                                  $gaps as xs:integer*, $evalCtx as element()*,
                                  $mo as xs:string, $queryPos as xs:integer)
    as element()* {
  if (fn:empty($tokens)) then $acc
  else
    for $pos in fts:tokenPositions($evalCtx, $tokens[1], $mo)
    where fn:string($pos/@doc) = $doc
      and number($pos/@absPos) > $prevPos
      and number($pos/@absPos) <= $prevPos + 1 + $gaps[1]
    return fts:extendPhrase(fts:addInclude($acc, $pos, $queryPos),
                            number($pos/@absPos), $doc,
                            $tokens[position() > 1], $gaps[position() > 1],
                            $evalCtx, $mo, $queryPos)
};

declare function fts:phraseMatches($evalCtx as element()*, $phrase as xs:string,
                                   $mo as xs:string, $queryPos as xs:integer,
                                   $weight as xs:double) as element()* {
  let $tokens := fts:tokensFor($phrase, $mo)
  let $kept := fts:keptTokens($tokens, $mo)
  let $gaps := fts:gapsHelper($tokens, $mo, 0)
  return
    if (fn:empty($kept)) then ()
    else
      for $pos in fts:tokenPositions($evalCtx, $kept[1], $mo)
      return fts:extendPhrase(
        <fts:Match score="{$weight * number($pos/@score)}">
          <fts:StringInclude queryPos="{$queryPos}">{$pos}</fts:StringInclude>
        </fts:Match>,
        number($pos/@absPos), fn:string($pos/@doc),
        $kept[position() > 1], $gaps[position() > 1],
        $evalCtx, $mo, $queryPos)
};

(: ===== FTWordsSelection ===== :)

declare function fts:andAll($ams as element()*) as element() {
  if (fn:empty($ams)) then <fts:AllMatches/>
  else if (count($ams) = 1) then $ams[1]
  else fts:FTAnd($ams[1], fts:andAll($ams[position() > 1]))
};

declare function fts:FTWordsSelection($evalCtx as element()*, $phrases,
                                      $anyall as xs:string, $mo as xs:string,
                                      $queryPos as xs:integer,
                                      $weight as xs:double) as element() {
  let $strings := for $p in $phrases return fn:string($p)
  return
    if ($anyall = "any") then
      <fts:AllMatches>{
        for $p in $strings return fts:phraseMatches($evalCtx, $p, $mo, $queryPos, $weight)
      }</fts:AllMatches>
    else if ($anyall = "any word") then
      <fts:AllMatches>{
        for $p in $strings, $t in fts:tokensFor($p, $mo)
        return fts:phraseMatches($evalCtx, $t, $mo, $queryPos, $weight)
      }</fts:AllMatches>
    else if ($anyall = "phrase") then
      <fts:AllMatches>{
        fts:phraseMatches($evalCtx, fn:string-join($strings, " "), $mo, $queryPos, $weight)
      }</fts:AllMatches>
    else if ($anyall = "all") then
      fts:andAll(
        for $p in $strings
        return <fts:AllMatches>{
          fts:phraseMatches($evalCtx, $p, $mo, $queryPos, $weight)
        }</fts:AllMatches>)
    else (: all words :)
      fts:andAll(
        for $p in $strings, $t in fts:tokensFor($p, $mo)
        return <fts:AllMatches>{
          fts:phraseMatches($evalCtx, $t, $mo, $queryPos, $weight)
        }</fts:AllMatches>)
};

(: ===== Boolean connectives ===== :)

declare function fts:mergedAnchors($a as element(), $b as element()) as xs:string {
  fn:normalize-space(fn:concat(fn:string($a/@anchors), " ", fn:string($b/@anchors)))
};

declare function fts:FTAnd($a as element(), $b as element()) as element() {
  <fts:AllMatches anchors="{fts:mergedAnchors($a, $b)}">{
    for $m1 in $a/fts:Match, $m2 in $b/fts:Match
    return <fts:Match score="{number($m1/@score) * number($m2/@score)}">{
      $m1/*, $m2/*
    }</fts:Match>
  }</fts:AllMatches>
};

declare function fts:FTOr($a as element(), $b as element()) as element() {
  <fts:AllMatches anchors="{fts:mergedAnchors($a, $b)}">{
    $a/fts:Match, $b/fts:Match
  }</fts:AllMatches>
};

declare function fts:negateMatches($ms as element()*) as element()* {
  if (fn:empty($ms)) then <fts:Match score="1"/>
  else
    let $first := $ms[1]
    for $rest in fts:negateMatches($ms[position() > 1])
    for $choice in $first/*
    return <fts:Match score="1">{
      $rest/*,
      if (fn:local-name($choice) = "StringInclude")
      then <fts:StringExclude queryPos="{$choice/@queryPos}">{$choice/*}</fts:StringExclude>
      else <fts:StringInclude queryPos="{$choice/@queryPos}">{$choice/*}</fts:StringInclude>
    }</fts:Match>
};

declare function fts:FTUnaryNot($a as element()) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    fts:negateMatches($a/fts:Match)
  }</fts:AllMatches>
};

declare function fts:FTMildNot($a as element(), $b as element()) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    for $m in $a/fts:Match
    where fn:not(
      some $e in $m/fts:StringInclude/fts:TokenInfo satisfies
        some $e2 in $b/fts:Match/fts:StringInclude/fts:TokenInfo satisfies
          (fn:string($e/@doc) = fn:string($e2/@doc)
           and number($e/@absPos) = number($e2/@absPos)))
    return $m
  }</fts:AllMatches>
};

(: ===== position filters ===== :)

declare function fts:FTOrdered($a as element()) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    for $m in $a/fts:Match
    where every $e1 in $m/fts:StringInclude satisfies
          every $e2 in $m/fts:StringInclude satisfies
            (number($e1/@queryPos) >= number($e2/@queryPos)
             or (fn:string($e1/fts:TokenInfo/@doc) = fn:string($e2/fts:TokenInfo/@doc)
                 and number($e1/fts:TokenInfo/@absPos) <= number($e2/fts:TokenInfo/@absPos)))
    return $m
  }</fts:AllMatches>
};

declare function fts:unitPos($si as element(), $unit as xs:string) as xs:double {
  if ($unit = "sentences") then number($si/fts:TokenInfo/@sentence)
  else if ($unit = "paragraphs") then number($si/fts:TokenInfo/@para)
  else number($si/fts:TokenInfo/@absPos)
};

declare function fts:pairDist($a as element(), $b as element(),
                              $unit as xs:string, $mo as xs:string) as xs:double {
  if ($unit = "words") then
    (: the engine-side wordDistance primitive (Section 3.1.1) skips stop
       words when the options carry an active list :)
    fts:wordDistance(fn:string($a/fts:TokenInfo/@doc),
                     number($a/fts:TokenInfo/@absPos),
                     number($b/fts:TokenInfo/@absPos), $mo)
  else
    let $d0 := fts:unitPos($b, $unit) - fts:unitPos($a, $unit)
    return if ($d0 < 0) then -$d0 else $d0
};

declare function fts:allSameDoc($m as element()) as xs:boolean {
  every $e in $m/fts:StringInclude/fts:TokenInfo satisfies
    fn:string($e/@doc) = fn:string(($m/fts:StringInclude/fts:TokenInfo)[1]/@doc)
};

declare function fts:sortedIncludes($m as element()) as element()* {
  for $si in $m/fts:StringInclude
  order by number($si/fts:TokenInfo/@absPos) ascending
  return $si
};

(: excludes survive only inside the span of the include positions :)
declare function fts:excludesInSpan($m as element(), $sorted as element()*,
                                    $unit as xs:string) as element()* {
  let $lo := fts:unitPos($sorted[1], $unit)
  let $hi := fts:unitPos($sorted[count($sorted)], $unit)
  for $se in $m/fts:StringExclude
  where fn:string($se/fts:TokenInfo/@doc)
          = fn:string($sorted[1]/fts:TokenInfo/@doc)
    and fts:unitPos($se, $unit) >= $lo and fts:unitPos($se, $unit) <= $hi
  return $se
};

declare function fts:maxAdjDist($sorted as element()*, $unit as xs:string,
                                $mo as xs:string) as xs:double {
  max(for $i in (1 to count($sorted) - 1)
      return fts:pairDist($sorted[$i], $sorted[$i + 1], $unit, $mo))
};

declare function fts:clampScore($s as xs:double) as xs:double {
  if ($s <= 0) then 0.000000000001 else if ($s > 1) then 1 else $s
};

(: the paper's FTWordDistanceAtMost (Section 3.2.3.1) generalized to all
   four range kinds; $hi < 0 encodes "no upper bound" :)
declare function fts:FTDistanceRange($lo as xs:integer, $hi as xs:integer,
                                     $unit as xs:string, $a as element(),
                                     $mo as xs:string)
    as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    for $m in $a/fts:Match
    let $sorted := fts:sortedIncludes($m)
    where count($sorted) < 2
       or (fts:allSameDoc($m)
           and (every $i in (1 to count($sorted) - 1) satisfies
                  (let $d := fts:pairDist($sorted[$i], $sorted[$i + 1], $unit, $mo)
                   return $d >= $lo and ($hi < 0 or $d <= $hi))))
    return
      if (count($sorted) < 2) then $m
      else
        let $damp := if ($hi < 0) then 1
                     else 1 - (fts:maxAdjDist($sorted, $unit, $mo) div ($hi + 1))
        return <fts:Match score="{fts:clampScore(number($m/@score) * $damp)}">{
          $sorted, fts:excludesInSpan($m, $sorted, $unit)
        }</fts:Match>
  }</fts:AllMatches>
};

declare function fts:FTDistanceAtMost($n as xs:integer, $unit as xs:string,
                                      $a as element(), $mo as xs:string) as element() {
  fts:FTDistanceRange(0, $n, $unit, $a, $mo)
};
declare function fts:FTDistanceAtLeast($n as xs:integer, $unit as xs:string,
                                       $a as element(), $mo as xs:string) as element() {
  fts:FTDistanceRange($n, -1, $unit, $a, $mo)
};
declare function fts:FTDistanceExactly($n as xs:integer, $unit as xs:string,
                                       $a as element(), $mo as xs:string) as element() {
  fts:FTDistanceRange($n, $n, $unit, $a, $mo)
};
declare function fts:FTDistanceFromTo($lo as xs:integer, $hi as xs:integer,
                                      $unit as xs:string, $a as element(),
                                      $mo as xs:string) as element() {
  fts:FTDistanceRange($lo, $hi, $unit, $a, $mo)
};

declare function fts:span($sorted as element()*, $unit as xs:string,
                          $mo as xs:string) as xs:double {
  let $lo := min(for $s in $sorted return fts:unitPos($s, $unit))
  let $hi := max(for $s in $sorted return fts:unitPos($s, $unit))
  return
    if ($unit = "words") then
      fts:wordSpan(fn:string($sorted[1]/fts:TokenInfo/@doc), $lo, $hi, $mo)
    else $hi - $lo + 1
};

declare function fts:FTWindow($n as xs:integer, $unit as xs:string,
                              $a as element(), $mo as xs:string) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    for $m in $a/fts:Match
    let $sorted := fts:sortedIncludes($m)
    where count($sorted) = 0
       or (fts:allSameDoc($m) and fts:span($sorted, $unit, $mo) <= $n)
    return
      if (count($sorted) = 0) then $m
      else
        let $damp := if ($n > 0)
                     then 1 - ((fts:span($sorted, $unit, $mo) - 1) div ($n + 1))
                     else 1
        return <fts:Match score="{fts:clampScore(number($m/@score) * $damp)}">{
          $sorted, fts:excludesInSpan($m, $sorted, $unit)
        }</fts:Match>
  }</fts:AllMatches>
};

declare function fts:FTScope($kind as xs:string, $a as element()) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    for $m in $a/fts:Match
    let $ids := for $e in $m/fts:StringInclude
                return (if (fn:contains($kind, "sentence"))
                        then number($e/fts:TokenInfo/@sentence)
                        else number($e/fts:TokenInfo/@para))
    where count($ids) <= 1
       or (fts:allSameDoc($m)
           and (if (fn:starts-with($kind, "same"))
                then every $i in $ids satisfies $i = $ids[1]
                else every $i in (1 to count($ids)) satisfies
                       every $j in (1 to count($ids)) satisfies
                         ($i = $j or $ids[$i] != $ids[$j])))
    return $m
  }</fts:AllMatches>
};

(: ===== FTTimes ("occurs ... times") ===== :)

declare function fts:productScores($ms as element()*) as xs:double {
  if (fn:empty($ms)) then 1
  else number($ms[1]/@score) * fts:productScores($ms[position() > 1])
};

declare function fts:toExcludes($m as element()) as element()* {
  for $si in $m/fts:StringInclude
  return <fts:StringExclude queryPos="{$si/@queryPos}">{$si/*}</fts:StringExclude>
};

(: last window first, as the native implementation emits them: an
   enclosing FTTimes breaks ties on its key by this order :)
declare function fts:timesWindows($ms as element()*, $k as xs:integer,
                                  $excl as xs:boolean) as element()* {
  for $i in fn:reverse(1 to count($ms) - $k + 1)
  let $window := fn:subsequence($ms, $i, $k)
  return <fts:Match score="{fts:clampScore(fts:productScores($window))}">{
    $window/fts:StringInclude,
    if ($excl) then
      (for $m in fn:subsequence($ms, 1, $i - 1) return fts:toExcludes($m),
       for $m in fn:subsequence($ms, $i + $k) return fts:toExcludes($m))
    else ()
  }</fts:Match>
};

(: a match's occurrence key: its first include in (document, position)
   order — the include the native implementation's position-sorted match
   puts first.  Construction order differs whenever FTAnd pairs a later
   document's occurrence with an earlier one's. :)
declare function fts:firstInclude($m as element()) as element()? {
  (for $si in $m/fts:StringInclude
   order by fn:string($si/fts:TokenInfo/@doc) ascending,
            number($si/fts:TokenInfo/@absPos) ascending
   return $si)[1]
};

(: occurrences are grouped by the document of their key and combined as
   consecutive windows in key order — a node's positions are contiguous in
   document order, so consecutive windows cover every per-node count; see
   the native implementation for the full argument.  The order by is
   stable, so ties (FTAnd can duplicate a word) keep input order, as the
   native sort does; the widest windows come first, the zero-occurrence
   match before them all, again in native order.  $hi < 0 encodes "no
   upper bound". :)
declare function fts:FTTimesImpl($lo as xs:integer, $hi as xs:integer,
                                 $a as element()) as element() {
  <fts:AllMatches anchors="{fn:string($a/@anchors)}">{
    (: the zero-occurrence case spans all documents :)
    (if ($lo = 0) then
       (if ($hi < 0) then <fts:Match score="1"/>
        else <fts:Match score="1">{
          for $m in $a/fts:Match return fts:toExcludes($m)
        }</fts:Match>)
     else ()),
    for $doc in distinct-values(
        for $m in $a/fts:Match
        let $first := fts:firstInclude($m)
        where exists($first)
        return fn:string($first/fts:TokenInfo/@doc))
    let $ms := for $m in $a/fts:Match
               let $first := fts:firstInclude($m)
               where exists($first)
                 and fn:string($first/fts:TokenInfo/@doc) = $doc
               order by number($first/fts:TokenInfo/@absPos) ascending
               return $m
    let $n := count($ms)
    return
      if ($hi < 0) then
        (if ($lo >= 1 and $lo <= $n) then fts:timesWindows($ms, $lo, fn:false()) else ())
      else
        for $k in fn:reverse(max((1, $lo)) to min(($hi, $n)))
        return fts:timesWindows($ms, $k, fn:true())
  }</fts:AllMatches>
};

declare function fts:FTTimesAtLeast($n as xs:integer, $a as element()) as element() {
  fts:FTTimesImpl($n, -1, $a)
};
declare function fts:FTTimesAtMost($n as xs:integer, $a as element()) as element() {
  fts:FTTimesImpl(0, $n, $a)
};
declare function fts:FTTimesExactly($n as xs:integer, $a as element()) as element() {
  fts:FTTimesImpl($n, $n, $a)
};
declare function fts:FTTimesFromTo($lo as xs:integer, $hi as xs:integer,
                                   $a as element()) as element() {
  fts:FTTimesImpl(max((0, $lo)), $hi, $a)
};

(: ===== FTContent anchors ===== :)

declare function fts:FTContent($anchor as xs:string, $a as element()) as element() {
  <fts:AllMatches anchors="{fn:normalize-space(fn:concat(fn:string($a/@anchors), ' ', $anchor))}">{
    $a/fts:Match
  }</fts:AllMatches>
};

(: ===== FTContains (satisfiesMatch, Section 3.2.3.1) ===== :)

declare function fts:anchorsOk($node as element(), $m as element(),
                               $anchors as xs:string) as xs:boolean {
  if ($anchors = "") then fn:true()
  else
    let $positions := for $e in $m/fts:StringInclude/fts:TokenInfo
                      return number($e/@absPos)
    return
      if (fn:empty($positions)) then fn:false()
      else
        let $lo := min($positions)
        let $hi := max($positions)
        return
          (fn:not(fn:contains($anchors, "at-start")) or $lo = fts:nodeFirstPos($node))
          and (fn:not(fn:contains($anchors, "at-end")) or $hi = fts:nodeLastPos($node))
          and (fn:not(fn:contains($anchors, "entire-content"))
               or ($lo = fts:nodeFirstPos($node) and $hi = fts:nodeLastPos($node)))
};

declare function fts:satisfiesMatch($node as element(), $m as element(),
                                    $anchors as xs:string) as xs:boolean {
  (every $e in $m/fts:StringInclude/fts:TokenInfo satisfies fts:posInNode($node, $e))
  and (every $e in $m/fts:StringExclude/fts:TokenInfo
       satisfies fn:not(fts:posInNode($node, $e)))
  and fts:anchorsOk($node, $m, $anchors)
};

declare function fts:nodeSatisfies($node as element(), $am as element()) as xs:boolean {
  some $m in $am/fts:Match
  satisfies fts:satisfiesMatch($node, $m, fn:string($am/@anchors))
};

declare function fts:FTContains($evalCtx as element()*, $am as element()) as xs:boolean {
  some $node in $evalCtx satisfies fts:nodeSatisfies($node, $am)
};

(: FTIgnoreOption ("without content Expr") :)

declare function fts:inIgnored($e as element(), $ignored as element()*) as xs:boolean {
  some $node in $ignored satisfies fts:posInNode($node, $e)
};

declare function fts:applyIgnore($am as element(), $ignored as element()*) as element() {
  <fts:AllMatches anchors="{fn:string($am/@anchors)}">{
    for $m in $am/fts:Match
    where fn:not(some $e in $m/fts:StringInclude/fts:TokenInfo
                 satisfies fts:inIgnored($e, $ignored))
    return <fts:Match score="{fn:string($m/@score)}">{
      $m/fts:StringInclude,
      for $se in $m/fts:StringExclude
      where fn:not(fts:inIgnored($se/fts:TokenInfo, $ignored))
      return $se
    }</fts:Match>
  }</fts:AllMatches>
};

declare function fts:FTContainsWithIgnore($evalCtx as element()*, $am as element(),
                                          $ignored as element()*) as xs:boolean {
  fts:FTContains($evalCtx, fts:applyIgnore($am, $ignored))
};

(: ===== scoring (Section 3.3) ===== :)

(: the literals are doubles (0e0, not 0): the host does not cast a result
   to its declared type, and ft:score yields xs:double on every strategy :)
declare function fts:noisyOr($scores as xs:double*) as xs:double {
  if (fn:empty($scores)) then 0e0
  else 1 - (1 - $scores[1]) * (1 - fts:noisyOr($scores[position() > 1]))
};

declare function fts:nodeScore($node as element(), $am as element()) as xs:double {
  let $scores := for $m in $am/fts:Match
                 where fts:satisfiesMatch($node, $m, fn:string($am/@anchors))
                 return number($m/@score)
  return if (fn:empty($scores)) then 0e0 else fts:clampScore(fts:noisyOr($scores))
};

declare function fts:FTScore($evalCtx as element()*, $am as element()) as xs:double* {
  for $node in $evalCtx return fts:nodeScore($node, $am)
};
|xq}

(* --- the engine-side primitives GalaTex inherits from Galax --- *)

let register_primitives ctx env =
  let reg name arity impl = Xquery.Context.register_builtin ctx name arity impl in
  let node_arg args =
    match args with
    | [ Xquery.Value.Node n ] :: _ -> n
    | _ -> Xquery.Context.dynamic_error "expected a single node argument"
  in
  reg "fts:checkWeight" 1 (fun _ args ->
      match args with
      | [ w ] ->
          Xquery.Value.double (Ft_ops.check_weight (Xquery.Value.to_number w))
      | _ -> Xquery.Context.dynamic_error "fts:checkWeight expects one number");
  reg "fts:deweyOf" 1 (fun _ args ->
      Xquery.Value.string (Dewey.to_string (Node.dewey (node_arg args))));
  reg "fts:docOf" 1 (fun _ args ->
      match Ftindex.Inverted.doc_of_node (Env.index env) (node_arg args) with
      | Some uri -> Xquery.Value.string uri
      | None -> Xquery.Value.string "");
  reg "fts:nodeFirstPos" 1 (fun _ args ->
      let n = node_arg args in
      match Ftindex.Inverted.doc_of_node (Env.index env) n with
      | None -> Xquery.Value.empty
      | Some doc -> (
          match
            Ftindex.Inverted.node_extent (Env.index env) ~doc
              ~node_dewey:(Node.dewey n)
          with
          | Some (first, _) -> Xquery.Value.integer first
          | None -> Xquery.Value.empty));
  reg "fts:nodeLastPos" 1 (fun _ args ->
      let n = node_arg args in
      match Ftindex.Inverted.doc_of_node (Env.index env) n with
      | None -> Xquery.Value.empty
      | Some doc -> (
          match
            Ftindex.Inverted.node_extent (Env.index env) ~doc
              ~node_dewey:(Node.dewey n)
          with
          | Some (_, last) -> Xquery.Value.integer last
          | None -> Xquery.Value.empty));
  let stops_of_descriptor mo =
    let contains_sub s sub =
      let ls = String.length s and lx = String.length sub in
      let rec at i = i + lx <= ls && (String.sub s i lx = sub || at (i + 1)) in
      at 0
    in
    if contains_sub mo "stoplist=" then begin
      let idx =
        let rec find i =
          if String.sub mo i 9 = "stoplist=" then i + 9 else find (i + 1)
        in
        find 0
      in
      let rest = String.sub mo idx (String.length mo - idx) in
      let upto = match String.index_opt rest '|' with Some i -> i | None -> String.length rest in
      Some
        (Tokenize.Stopwords.Set.of_list
           (String.split_on_char ',' (String.sub rest 0 upto)))
    end
    else if contains_sub mo "stop=on" then
      Some (Tokenize.Stopwords.Set.of_list Tokenize.Stopwords.default_english)
    else None
  in
  let counting_of mo = Ft_ops.counting ?stops:(stops_of_descriptor mo) env in
  reg "fts:wordDistance" 4 (fun _ args ->
      match args with
      | [ doc; p1; p2; mo ] ->
          let doc = Xquery.Value.to_string_single doc in
          let p1 = int_of_float (Xquery.Value.to_number p1) in
          let p2 = int_of_float (Xquery.Value.to_number p2) in
          let mo = Xquery.Value.to_string_single mo in
          Xquery.Value.integer
            (Ft_ops.words_between (counting_of mo) ~doc (min p1 p2) (max p1 p2))
      | _ -> Xquery.Context.dynamic_error "fts:wordDistance expects 4 arguments");
  reg "fts:wordSpan" 4 (fun _ args ->
      match args with
      | [ doc; lo; hi; mo ] ->
          let doc = Xquery.Value.to_string_single doc in
          let lo = int_of_float (Xquery.Value.to_number lo) in
          let hi = int_of_float (Xquery.Value.to_number hi) in
          let mo = Xquery.Value.to_string_single mo in
          Xquery.Value.integer (Ft_ops.word_span (counting_of mo) ~doc lo hi)
      | _ -> Xquery.Context.dynamic_error "fts:wordSpan expects 4 arguments");
  reg "galax:stem" 1 (fun _ args ->
      let w =
        match args with
        | [ v ] -> Xquery.Value.to_string_single v
        | _ -> Xquery.Context.dynamic_error "galax:stem expects one string"
      in
      Xquery.Value.string (Tokenize.Porter.stem (Tokenize.Normalize.casefold w)));
  reg "fts:stripDiacritics" 1 (fun _ args ->
      let w =
        match args with
        | [ v ] -> Xquery.Value.to_string_single v
        | _ -> Xquery.Context.dynamic_error "fts:stripDiacritics expects one string"
      in
      Xquery.Value.string (Tokenize.Normalize.strip_diacritics w));
  reg "fts:specialCharsPattern" 1 (fun _ args ->
      let w =
        match args with
        | [ v ] -> Xquery.Value.to_string_single v
        | _ ->
            Xquery.Context.dynamic_error "fts:specialCharsPattern expects one string"
      in
      Xquery.Value.string (Tokenize.Normalize.special_chars_to_pattern w))

(* --- document resolver: corpus documents + generated index documents --- *)

let thesaurus_document ?relationship ?levels name thesaurus =
  (* entries are pre-expanded through lookup (with the requested
     relationship and level bound) so a single XQuery-side dereference step
     sees the full bounded closure *)
  let words = Hashtbl.create 64 in
  let entries = ref [] in
  (match thesaurus with
  | None -> ()
  | Some th ->
      (* we cannot enumerate an abstract thesaurus's domain, so expand from
         each term that appears as a source in its entries *)
      List.iter
        (fun from_term ->
          if not (Hashtbl.mem words from_term) then begin
            Hashtbl.replace words from_term ();
            List.iter
              (fun to_term ->
                if to_term <> from_term then
                  entries := (from_term, to_term) :: !entries)
              (Tokenize.Thesaurus.lookup th ?relationship ?levels from_term)
          end)
        (Tokenize.Thesaurus.domain th));
  Node.seal
    (Node.document
       ~uri:("thesaurus_" ^ name ^ ".xml")
       [
         Node.element "Thesaurus"
           (List.map
              (fun (f, t) ->
                Node.element "entry"
                  ~attributes:[ Node.attribute "from" f; Node.attribute "to" t ]
                  [])
              (List.rev !entries));
       ])

let stopwords_document () =
  Node.seal
    (Node.document ~uri:"stopwords_default.xml"
       [
         Node.element "StopWords"
           (List.map
              (fun w -> Node.element "w" [ Node.text w ])
              Tokenize.Stopwords.default_english);
       ])

(* parse "<name>__<relationship>__<levels>" thesaurus document names *)
module Str_split = struct
  let split_spec spec =
    (* find the two "__" separators from the right *)
    let rec find_sep i =
      if i < 0 then None
      else if i + 1 < String.length spec && spec.[i] = '_' && spec.[i + 1] = '_'
      then Some i
      else find_sep (i - 1)
    in
    match find_sep (String.length spec - 2) with
    | None -> None
    | Some j -> (
        let levels_str = String.sub spec (j + 2) (String.length spec - j - 2) in
        let head = String.sub spec 0 j in
        match find_sep (String.length head - 2) with
        | None -> None
        | Some i ->
            let rel = String.sub head (i + 2) (String.length head - i - 2) in
            let name = String.sub head 0 i in
            let relationship = if rel = "any" then None else Some rel in
            let levels = int_of_string_opt levels_str in
            Some (name, relationship, levels))
end

let make_resolver env =
  let cache : (string, Node.t) Hashtbl.t = Hashtbl.create 64 in
  let index = Env.index env in
  fun uri ->
    match Ftindex.Inverted.document_root index uri with
    | Some doc -> Some doc
    | None -> (
        match Hashtbl.find_opt cache uri with
        | Some doc -> Some doc
        | None ->
            let generated =
              if uri = "list_distinct_words.xml" then
                Some (Ftindex.Index_xml.distinct_words_document index)
              else if uri = "stopwords_default.xml" then
                Some (stopwords_document ())
              else if
                String.length uri > String.length "invlist_.xml"
                && String.sub uri 0 8 = "invlist_"
              then
                let word =
                  String.sub uri 8 (String.length uri - 8 - String.length ".xml")
                in
                Some (Ftindex.Index_xml.inverted_list_document index word)
              else if
                String.length uri > String.length "thesaurus_.xml"
                && String.sub uri 0 10 = "thesaurus_"
              then begin
                let spec =
                  String.sub uri 10 (String.length uri - 10 - String.length ".xml")
                in
                (* "<name>__<relationship>__<levels>" or a bare name *)
                let name, relationship, levels =
                  match String.split_on_char '_' spec with
                  | _ -> (
                      match Str_split.split_spec spec with
                      | Some (n, r, l) -> (n, r, l)
                      | None -> (spec, None, None))
                in
                let th =
                  Env.find_thesaurus env
                    (if name = "default" then None else Some name)
                in
                Some (thesaurus_document ?relationship ?levels spec th)
              end
              else None
            in
            (match generated with
            | Some doc -> Hashtbl.replace cache uri doc
            | None -> ());
            generated)

let parsed_library = lazy (Xquery.Parser.parse_module library_source)

(* Set up a context that can run translated (full-text free) queries: fn:
   builtins, the fts primitives, the fts XQuery module, and the resolver. *)
let setup_context ?governor ?(prepare = Fun.id) env (q : Xquery.Ast.query) =
  let resolve_doc = make_resolver env in
  Xquery.Eval.setup_context ~resolve_doc ?governor q ~prepare:(fun ctx ->
      register_primitives ctx env;
      prepare (Xquery.Eval.load_module ctx (Lazy.force parsed_library)))
