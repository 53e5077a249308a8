#!/usr/bin/env bash
# End-to-end CLI robustness smoke: structured errors and exit codes for
# document-loading failures, and the persistent-index lifecycle including
# corruption detection / salvage (exit codes: 1 static, 2 dynamic).
set -u
case "$1" in
  /*) GX="$1" ;;
  *) GX="$PWD/$1" ;;
esac
fails=0

expect_exit() { # expect_exit NAME WANT ACTUAL
  if [ "$3" -ne "$2" ]; then
    echo "FAIL $1: expected exit $2, got $3" >&2
    fails=$((fails + 1))
  else
    echo "ok   $1 (exit $3)"
  fi
}

work=$(mktemp -d "$PWD/cli-smoke-XXXXXX")
# every background daemon registers its PID here; the trap kills them all
# on ANY exit path — a failing check must never leave daemons running
daemons=""
cleanup() {
  for pid in $daemons; do kill -9 "$pid" 2>/dev/null; done
  wait 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

cat > a.xml <<'EOF'
<book><title>Usability testing</title><p>Software usability and testing of web site design requirements.</p></book>
EOF
cat > b.xml <<'EOF'
<book><title>Web design</title><p>Practical web design including usability goals and testing plans.</p></book>
EOF
printf '<book><open>' > bad.xml

# --- document-loading failures are structured, not raw exceptions ---
"$GX" query -d no-such-file.xml '//title' 2>err.txt
expect_exit "missing --document is dynamic (FODC0002)" 2 $?
grep -q 'err:FODC0002' err.txt || { echo "FAIL: FODC0002 not reported" >&2; fails=$((fails+1)); }

"$GX" query -d bad.xml '//title' 2>err.txt
expect_exit "malformed XML is static (XPST0003)" 1 $?
grep -q 'err:XPST0003' err.txt || { echo "FAIL: XPST0003 not reported" >&2; fails=$((fails+1)); }

# --- the sequence law: a context of several nodes means "some" of its
# --- nodes, under each strategy ---
cat > shelf.xml <<'EOF'
<shelf><p>c c b d</p><p>d a b a</p><p>b b c b</p><p>d a c</p></shelf>
EOF
for strategy in translated materialized; do
  out=$("$GX" query -d shelf.xml -s "$strategy" '(//p) ftcontains (("b" && "c") occurs at least 2 times)')
  expect_exit "sequence law, $strategy" 0 $?
  [ "$out" = "true" ] || { echo "FAIL: sequence law, $strategy: $out" >&2; fails=$((fails+1)); }
done

# --- a content anchor filters the matches of its own operand, through
# --- FTOr, FTAnd and negation alike, under each strategy ---
cat > anchors.xml <<'EOF'
<shelf><p>c a b</p></shelf>
EOF
for strategy in translated materialized; do
  while IFS='|' read -r want sel; do
    out=$("$GX" query -d anchors.xml -s "$strategy" "count(//p[. ftcontains $sel])")
    expect_exit "anchor $sel, $strategy" 0 $?
    [ "$out" = "$want" ] || { echo "FAIL: anchor $sel, $strategy: $out, want $want" >&2; fails=$((fails+1)); }
  done <<'EOF'
1|("a" at start) || "b"
1|("c" at start) || ("b" at end)
1|!("a" at start)
0|("a" at end) && "b"
EOF
done

# --- persisted index lifecycle ---
"$GX" index -d a.xml -d b.xml --output snap >/dev/null
expect_exit "index --output" 0 $?

out=$("$GX" query --index snap '//title[. ftcontains "usability"]')
expect_exit "query --index" 0 $?
[ "$out" = "<title>Usability testing</title>" ] || { echo "FAIL: wrong query result: $out" >&2; fails=$((fails+1)); }

"$GX" query --index snap --report '//title[. ftcontains "usability"]' 2>rep.txt >/dev/null
grep -q 'fallbacks-total=' rep.txt || { echo "FAIL: --report missing fallbacks-total" >&2; fails=$((fails+1)); }
grep -q 'storage: snapshot loaded clean' rep.txt || { echo "FAIL: --report missing storage line" >&2; fails=$((fails+1)); }

# --- tracing: human tree on stderr, JSON span tree + counters on stdout ---
out=$("$GX" query --index snap --trace '//title[. ftcontains "usability"]' 2>trace.txt)
expect_exit "query --trace" 0 $?
[ "$out" = "<title>Usability testing</title>" ] || { echo "FAIL: --trace changed the answer: $out" >&2; fails=$((fails+1)); }
grep -q 'query' trace.txt || { echo "FAIL: --trace missing root span" >&2; fails=$((fails+1)); }
grep -q 'ft_eval' trace.txt || { echo "FAIL: --trace missing ft_eval span" >&2; fails=$((fails+1)); }

"$GX" query --index snap --trace-json '//title[. ftcontains "usability"]' >trace.json
expect_exit "query --trace-json" 0 $?
grep -q '"name":"query"' trace.json || { echo "FAIL: --trace-json missing query span" >&2; fails=$((fails+1)); }
grep -q '"allmatches_materialized":' trace.json || { echo "FAIL: --trace-json missing counters" >&2; fails=$((fails+1)); }
grep -q '"postings_read":' trace.json || { echo "FAIL: --trace-json missing postings_read" >&2; fails=$((fails+1)); }

"$GX" query --server nowhere.sock --trace '//title' 2>/dev/null
[ $? -ne 0 ] || { echo "FAIL: --trace with --server should be rejected" >&2; fails=$((fails+1)); }

# --- corrupt a document segment: fatal without sources (GTLX0006);
# --- with the sources passed as -d it is re-indexed, the answer is the
# --- same and the damage is reported ---
doc_seg=$(ls snap/doc-*.seg | head -1)
dd if=/dev/zero of="$doc_seg" bs=1 seek=40 count=4 conv=notrunc 2>/dev/null
"$GX" query --index snap '//title[. ftcontains "usability"]' 2>err.txt
expect_exit "corrupt doc segment without sources (GTLX0006)" 2 $?
grep -q 'gtlx:GTLX0006' err.txt || { echo "FAIL: GTLX0006 not reported" >&2; fails=$((fails+1)); }

out=$("$GX" query --index snap -d a.xml -d b.xml '//title[. ftcontains "usability"]' 2>err.txt)
expect_exit "salvage with --document sources" 0 $?
[ "$out" = "<title>Usability testing</title>" ] || { echo "FAIL: source salvage changed the answer: $out" >&2; fails=$((fails+1)); }
grep -q 'salvaged snapshot' err.txt || { echo "FAIL: salvage not reported" >&2; fails=$((fails+1)); }
grep -q '^warning: ' err.txt || { echo "FAIL: salvage warning not a one-line 'warning:'" >&2; fails=$((fails+1)); }

# --- --quiet silences the salvage warning (result unchanged) ---
out=$("$GX" query --index snap -d a.xml -d b.xml --quiet '//title[. ftcontains "usability"]' 2>err.txt)
expect_exit "salvaged query with --quiet" 0 $?
[ "$out" = "<title>Usability testing</title>" ] || { echo "FAIL: --quiet changed the answer: $out" >&2; fails=$((fails+1)); }
grep -q 'warning:' err.txt && { echo "FAIL: --quiet did not silence the salvage warning" >&2; fails=$((fails+1)); }

# --- missing manifest: incomplete snapshot ---
rm snap/MANIFEST
"$GX" query --index snap '//title' 2>err.txt
expect_exit "missing manifest (GTLX0008)" 2 $?
grep -q 'gtlx:GTLX0008' err.txt || { echo "FAIL: GTLX0008 not reported" >&2; fails=$((fails+1)); }

# --- server lifecycle: serve, query over the socket, SIGHUP hot reload,
# --- SIGTERM graceful shutdown (exit 0, no leftover socket) ---
"$GX" index -d a.xml -d b.xml --output srvsnap >/dev/null
expect_exit "index for serving" 0 $?

# --slow-threshold 0: every query lands in the slow-query log
"$GX" serve --index srvsnap --socket srv.sock --slow-threshold 0 2>serve.log &
SRV=$!; daemons="$daemons $SRV"
for _ in $(seq 1 100); do [ -S srv.sock ] && break; sleep 0.1; done
[ -S srv.sock ] || { echo "FAIL: daemon never bound its socket" >&2; cat serve.log >&2; fails=$((fails+1)); }

out=$("$GX" query --server srv.sock --retries 2 '//title[. ftcontains "usability"]')
expect_exit "query over the socket" 0 $?
[ "$out" = "<title>Usability testing</title>" ] || { echo "FAIL: wrong served result: $out" >&2; fails=$((fails+1)); }

"$GX" stats --server srv.sock | grep -q '^generation 1$' || { echo "FAIL: stats missing generation 1" >&2; fails=$((fails+1)); }

# --- metrics scrape: the query above is visible in the exposition and
# --- in the slow-query log (threshold 0 logs everything)
"$GX" stats --server srv.sock --metrics >metrics.txt
expect_exit "stats --metrics" 0 $?
grep -q '^galatex_queries_total 1$' metrics.txt || { echo "FAIL: galatex_queries_total not incremented" >&2; fails=$((fails+1)); }
grep -q '^galatex_engine_postings_read_total [1-9]' metrics.txt || { echo "FAIL: engine counters missing from metrics" >&2; fails=$((fails+1)); }
grep -q 'galatex_query_duration_seconds_count{strategy="materialized"} 1' metrics.txt || { echo "FAIL: per-strategy histogram missing" >&2; fails=$((fails+1)); }
"$GX" stats --server srv.sock --slowlog | grep -q 'strategy=materialized' || { echo "FAIL: slow-query log empty under zero threshold" >&2; fails=$((fails+1)); }

# --- network deadlines: one-shots against a blackholed endpoint must
# --- fail fast with the structured resource code gtlx:GTLX0014 (exit 4),
# --- never hang — the faultnet proxy is the accept-then-hang endpoint
"$GX" faultnet hole.sock srv.sock --blackhole 2>hole.log &
FN=$!; daemons="$daemons $FN"
for _ in $(seq 1 100); do [ -S hole.sock ] && break; sleep 0.1; done
[ -S hole.sock ] || { echo "FAIL: faultnet never bound its socket" >&2; cat hole.log >&2; fails=$((fails+1)); }

timeout 10 "$GX" stats --server hole.sock --io-timeout 0.5 2>err.txt
expect_exit "stats against a blackhole is resource (GTLX0014, exit 4)" 4 $?
grep -q 'gtlx:GTLX0014' err.txt || { echo "FAIL: stats deadline not tagged GTLX0014" >&2; cat err.txt >&2; fails=$((fails+1)); }

timeout 10 "$GX" stats --server hole.sock --health --io-timeout 0.5 2>err.txt
expect_exit "stats --health against a blackhole exits 4" 4 $?
grep -q 'gtlx:GTLX0014' err.txt || { echo "FAIL: health deadline not tagged GTLX0014" >&2; cat err.txt >&2; fails=$((fails+1)); }

# a query through the blackhole is cut by the client-side deadline too
timeout 10 "$GX" query --server hole.sock --timeout 0.5 '//title' 2>err.txt
rc=$?
[ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || { echo "FAIL: blackholed query hung or succeeded (rc $rc)" >&2; fails=$((fails+1)); }

kill -TERM $FN
wait $FN 2>/dev/null
expect_exit "faultnet exits 0 on SIGTERM" 0 $?

# the daemon behind the proxy was never harmed
"$GX" stats --server srv.sock | grep -q '^generation 1$' || { echo "FAIL: daemon unhealthy after blackhole drill" >&2; fails=$((fails+1)); }

# a new snapshot generation lands in the directory; SIGHUP hot-reloads it
"$GX" index -d b.xml --output srvsnap >/dev/null
kill -HUP $SRV
reloaded=0
for _ in $(seq 1 100); do
  if "$GX" stats --server srv.sock 2>/dev/null | grep -q '^generation 2$'; then reloaded=1; break; fi
  sleep 0.1
done
[ "$reloaded" -eq 1 ] || { echo "FAIL: SIGHUP reload never reached generation 2" >&2; cat serve.log >&2; fails=$((fails+1)); }

out=$("$GX" query --server srv.sock '//title[. ftcontains "design"]')
expect_exit "query sees the reloaded snapshot" 0 $?
[ "$out" = "<title>Web design</title>" ] || { echo "FAIL: stale data after reload: $out" >&2; fails=$((fails+1)); }

# graceful shutdown: drains, exits 0, removes the socket
kill -TERM $SRV
wait $SRV
expect_exit "daemon exits 0 on SIGTERM" 0 $?
[ -e srv.sock ] && { echo "FAIL: socket file left behind after shutdown" >&2; fails=$((fails+1)); }

"$GX" query --server srv.sock '//title' 2>err.txt
expect_exit "query against a dead socket is dynamic (FODC0002)" 2 $?
grep -q 'err:FODC0002' err.txt || { echo "FAIL: dead-socket error not structured" >&2; fails=$((fails+1)); }

# --- live updates: every acknowledged update survives kill -9 ---
# Apply N updates through the write-ahead log, kill the daemon with
# SIGKILL (no drain, no flush), then verify the recovered index answers
# exactly like a from-scratch re-index of the acknowledged documents.
cat > u1.xml <<'EOF'
<book><title>Axolotl care</title><p>axolotl habitats and feeding.</p></book>
EOF
cat > u2.xml <<'EOF'
<book><title>Axolotl biology</title><p>regeneration in the axolotl.</p></book>
EOF
cat > u3.xml <<'EOF'
<book><title>Axolotl myths</title><p>stories about the axolotl.</p></book>
EOF
UQ='collection()//title[. ftcontains "axolotl"]'

"$GX" index -d a.xml --output updsnap >/dev/null
expect_exit "index for live updates" 0 $?

"$GX" serve --index updsnap --socket upd.sock 2>upd-serve.log &
USRV=$!; daemons="$daemons $USRV"
for _ in $(seq 1 100); do [ -S upd.sock ] && break; sleep 0.1; done
[ -S upd.sock ] || { echo "FAIL: update daemon never bound its socket" >&2; cat upd-serve.log >&2; fails=$((fails+1)); }

for f in u1.xml u2.xml u3.xml; do
  "$GX" update --server upd.sock -a "$f" >ack.txt
  expect_exit "update --server $f" 0 $?
  grep -q '^acknowledged 1 operation' ack.txt || { echo "FAIL: $f not acknowledged" >&2; fails=$((fails+1)); }
done

kill -9 $USRV
wait $USRV 2>/dev/null
# SIGKILL leaves the socket file behind: remove it so the bind-wait below
# observes the restarted daemon, not the corpse
rm -f upd.sock

"$GX" index -d a.xml -d u1.xml -d u2.xml -d u3.xml --output freshsnap >/dev/null
want=$("$GX" query --index freshsnap "$UQ")
got=$("$GX" query --index updsnap "$UQ" 2>/dev/null)
expect_exit "query on the recovered index" 0 $?
[ "$got" = "$want" ] || { echo "FAIL: recovery diverged from re-index: [$got] vs [$want]" >&2; fails=$((fails+1)); }

# a restarted daemon serves the recovered state and can fold it away
"$GX" serve --index updsnap --socket upd.sock 2>>upd-serve.log &
USRV=$!; daemons="$daemons $USRV"
for _ in $(seq 1 100); do [ -S upd.sock ] && break; sleep 0.1; done
"$GX" stats --server upd.sock | grep -q '^wal_records 3$' || { echo "FAIL: recovered log not mirrored in stats" >&2; fails=$((fails+1)); }

got=$("$GX" query --server upd.sock --retries 2 "$UQ")
expect_exit "restarted daemon serves recovered updates" 0 $?
[ "$got" = "$want" ] || { echo "FAIL: served recovery diverged: [$got] vs [$want]" >&2; fails=$((fails+1)); }

"$GX" update --server upd.sock --compact >ack.txt
expect_exit "update --compact over the socket" 0 $?
grep -q '^compacted: 3 record(s) folded into generation 2$' ack.txt || { echo "FAIL: compaction not reported: $(cat ack.txt)" >&2; fails=$((fails+1)); }

got=$("$GX" query --server upd.sock "$UQ")
[ "$got" = "$want" ] || { echo "FAIL: compaction changed the answer: [$got] vs [$want]" >&2; fails=$((fails+1)); }

kill -TERM $USRV
wait $USRV
expect_exit "update daemon exits 0 on SIGTERM" 0 $?

# offline form: append to the log directly, no daemon involved
"$GX" update --index updsnap -r u3.xml >ack.txt
expect_exit "offline update --index" 0 $?
grep -q '^appended 1 operation' ack.txt || { echo "FAIL: offline update not reported" >&2; fails=$((fails+1)); }

"$GX" index -d a.xml -d u1.xml -d u2.xml --output freshsnap2 >/dev/null
want=$("$GX" query --index freshsnap2 "$UQ")
got=$("$GX" query --index updsnap "$UQ" 2>/dev/null)
[ "$got" = "$want" ] || { echo "FAIL: offline removal diverged: [$got] vs [$want]" >&2; fails=$((fails+1)); }

# a half-written trailing record (torn tail) is dropped silently
printf 'torn' >> updsnap/WAL
got=$("$GX" query --index updsnap "$UQ" 2>/dev/null)
expect_exit "torn WAL tail recovered" 0 $?
[ "$got" = "$want" ] || { echo "FAIL: torn tail changed the answer: [$got] vs [$want]" >&2; fails=$((fails+1)); }

# mid-log corruption is a structured dynamic error, never a wrong answer
# (bytes 8-9 are the first bytes of the header payload — the log magic)
dd if=/dev/zero of=updsnap/WAL bs=1 seek=8 count=2 conv=notrunc 2>/dev/null
"$GX" query --index updsnap "$UQ" 2>err.txt
expect_exit "corrupt WAL is dynamic (GTLX0010)" 2 $?
grep -q 'gtlx:GTLX0010' err.txt || { echo "FAIL: GTLX0010 not reported" >&2; fails=$((fails+1)); }

# --- cluster lifecycle: shard the corpus, serve it behind the router,
# --- lose a shard (partial, GTLX0011), restart it (full), roll a reload
# --- over SIGHUP with zero failed queries ---
for i in 1 2 3 4 5 6; do
  printf '<book><title>Cluster %d</title><p>cluster usability item %d</p></book>' "$i" "$i" > "c$i.xml"
done
"$GX" index -d c1.xml -d c2.xml -d c3.xml -d c4.xml -d c5.xml -d c6.xml \
  --shards 2 --output clu >/dev/null
expect_exit "index --shards 2" 0 $?
[ -d clu/shard-0 ] && [ -d clu/shard-1 ] || { echo "FAIL: sharded index layout missing" >&2; fails=$((fails+1)); }

"$GX" serve --index clu/shard-0 --socket s0.sock 2>s0.log & S0=$!; daemons="$daemons $S0"
"$GX" serve --index clu/shard-1 --socket s1.sock 2>s1.log & S1=$!; daemons="$daemons $S1"
for _ in $(seq 1 100); do [ -S s0.sock ] && [ -S s1.sock ] && break; sleep 0.1; done
[ -S s0.sock ] && [ -S s1.sock ] || { echo "FAIL: shard daemons never bound" >&2; cat s0.log s1.log >&2; fails=$((fails+1)); }

"$GX" route --shard s0.sock --shard s1.sock --socket rt.sock 2>rt.log & RT=$!; daemons="$daemons $RT"
for _ in $(seq 1 100); do [ -S rt.sock ] && break; sleep 0.1; done
[ -S rt.sock ] || { echo "FAIL: router never bound its socket" >&2; cat rt.log >&2; fails=$((fails+1)); }

CQ='count(collection()//book)'
out=$("$GX" query --server rt.sock --retries 2 "$CQ" 2>err.txt)
expect_exit "routed count over 2 shards" 0 $?
[ "$out" = "6" ] || { echo "FAIL: routed count wrong: $out" >&2; fails=$((fails+1)); }
grep -q 'warning:' err.txt && { echo "FAIL: healthy cluster answered partial" >&2; fails=$((fails+1)); }

"$GX" stats --server rt.sock --health | grep -q '^generation 1$' || { echo "FAIL: cluster health missing generation 1" >&2; fails=$((fails+1)); }

# kill -9 one shard: the query degrades to a partial (exit 0) that names
# the missing partition with GTLX0011 on stderr — never a hard failure
kill -9 $S1
wait $S1 2>/dev/null
"$GX" query --server rt.sock "$CQ" >/dev/null 2>err.txt
expect_exit "degraded query after shard kill -9" 0 $?
grep -q 'gtlx:GTLX0011' err.txt || { echo "FAIL: partial not tagged GTLX0011" >&2; cat err.txt >&2; fails=$((fails+1)); }
grep -Fq 'missing partition(s) 1' err.txt || { echo "FAIL: partial does not name partition 1" >&2; cat err.txt >&2; fails=$((fails+1)); }

# restart the shard: full answers come back once its breaker re-probes
rm -f s1.sock
"$GX" serve --index clu/shard-1 --socket s1.sock 2>>s1.log & S1=$!; daemons="$daemons $S1"
recovered=0
for _ in $(seq 1 100); do
  out=$("$GX" query --server rt.sock --retries 2 "$CQ" 2>err.txt)
  if [ "$out" = "6" ] && ! grep -q 'warning:' err.txt; then recovered=1; break; fi
  sleep 0.1
done
[ "$recovered" -eq 1 ] || { echo "FAIL: cluster never recovered after shard restart" >&2; cat rt.log >&2; fails=$((fails+1)); }

# rolling reload over SIGHUP while a query stream runs: every query in
# the stream must come back complete — N-1 shards always serve the roll
: > roll-fails.txt
(
  for _ in $(seq 1 25); do
    o=$("$GX" query --server rt.sock --retries 3 "$CQ" 2>w.txt) || echo "hard failure" >> roll-fails.txt
    [ "$o" = "6" ] || echo "wrong answer: $o" >> roll-fails.txt
    grep -q 'warning:' w.txt && echo "partial during roll" >> roll-fails.txt
  done
) &
QL=$!
sleep 0.2
kill -HUP $RT
wait $QL
[ -s roll-fails.txt ] && { echo "FAIL: queries failed during rolling reload:" >&2; sort roll-fails.txt | uniq -c >&2; fails=$((fails+1)); }

rolled=0
for _ in $(seq 1 100); do
  if "$GX" stats --server s0.sock 2>/dev/null | grep -q '^reloads 1$' \
     && "$GX" stats --server s1.sock 2>/dev/null | grep -q '^reloads 1$'; then rolled=1; break; fi
  sleep 0.1
done
[ "$rolled" -eq 1 ] || { echo "FAIL: rolling reload did not reach every shard" >&2; cat rt.log >&2; fails=$((fails+1)); }

# graceful teardown: router exits 0 and removes its socket
kill -TERM $RT
wait $RT
expect_exit "router exits 0 on SIGTERM" 0 $?
[ -e rt.sock ] && { echo "FAIL: router socket left behind" >&2; fails=$((fails+1)); }
kill -TERM $S0 $S1
wait $S0 $S1 2>/dev/null

# --- replication: a follower bootstraps an EMPTY directory from its
# --- primary over the wire, tails the write-ahead log, converges to the
# --- same (generation, seq, manifest CRC), and rejects writes ---
"$GX" index -d a.xml -d b.xml --output repsnap >/dev/null
expect_exit "index for replication" 0 $?

"$GX" serve --index repsnap --socket pri.sock 2>pri.log & PRI=$!; daemons="$daemons $PRI"
for _ in $(seq 1 100); do [ -S pri.sock ] && break; sleep 0.1; done
[ -S pri.sock ] || { echo "FAIL: replication primary never bound" >&2; cat pri.log >&2; fails=$((fails+1)); }

# repdir does not exist: the follower must pull the snapshot to create it
"$GX" serve --index repdir --socket fol.sock --follow pri.sock 2>fol.log & FOL=$!; daemons="$daemons $FOL"
for _ in $(seq 1 100); do [ -S fol.sock ] && break; sleep 0.1; done
[ -S fol.sock ] || { echo "FAIL: follower never bound (bootstrap failed?)" >&2; cat fol.log >&2; fails=$((fails+1)); }

"$GX" stats --server fol.sock --health | grep -q '^role replica$' || { echo "FAIL: follower health missing replica role" >&2; fails=$((fails+1)); }
"$GX" stats --server pri.sock --health | grep -q '^role primary$' || { echo "FAIL: primary health missing primary role" >&2; fails=$((fails+1)); }

# stream updates at the primary; the follower tails them within ticks
for f in u1.xml u2.xml u3.xml; do
  "$GX" update --server pri.sock -a "$f" >/dev/null
  expect_exit "replicated update $f" 0 $?
done

fingerprint() { "$GX" stats --server "$1" --health 2>/dev/null | grep -E '^(generation|seq|manifest_crc) '; }
converged=0
for _ in $(seq 1 100); do
  if [ -n "$(fingerprint pri.sock)" ] && [ "$(fingerprint pri.sock)" = "$(fingerprint fol.sock)" ]; then converged=1; break; fi
  sleep 0.1
done
[ "$converged" -eq 1 ] || { echo "FAIL: follower never converged: [$(fingerprint pri.sock)] vs [$(fingerprint fol.sock)]" >&2; cat fol.log >&2; fails=$((fails+1)); }

want=$("$GX" query --server pri.sock "$UQ")
got=$("$GX" query --server fol.sock "$UQ")
expect_exit "query on the follower" 0 $?
[ "$got" = "$want" ] || { echo "FAIL: follower answers diverge: [$got] vs [$want]" >&2; fails=$((fails+1)); }

# the follower is read-only: updates are refused with a structured error
"$GX" update --server fol.sock -a u1.xml 2>err.txt
expect_exit "follower rejects updates (FODC0002)" 2 $?
grep -q 'err:FODC0002' err.txt || { echo "FAIL: follower rejection not structured" >&2; fails=$((fails+1)); }

# a primary compaction moves the base generation; the follower re-syncs
"$GX" update --server pri.sock --compact >/dev/null
expect_exit "primary compaction" 0 $?
resynced=0
for _ in $(seq 1 100); do
  if [ -n "$(fingerprint pri.sock)" ] && [ "$(fingerprint pri.sock)" = "$(fingerprint fol.sock)" ]; then resynced=1; break; fi
  sleep 0.1
done
[ "$resynced" -eq 1 ] || { echo "FAIL: follower never re-synced after compaction" >&2; cat fol.log >&2; fails=$((fails+1)); }
"$GX" stats --server fol.sock | grep -q '^snapshot_resyncs [1-9]' || { echo "FAIL: snapshot re-sync not counted" >&2; fails=$((fails+1)); }

# --- failover: promote the follower onto a new fencing epoch; it flips
# --- to primary, accepts writes, and advertises the new timeline ---
"$GX" promote fol.sock >promote.txt
expect_exit "galatex promote" 0 $?
grep -q 'role primary' promote.txt || { echo "FAIL: promote did not report the primary role: $(cat promote.txt)" >&2; fails=$((fails+1)); }
grep -q 'epoch 2' promote.txt || { echo "FAIL: promote did not advance the epoch: $(cat promote.txt)" >&2; fails=$((fails+1)); }
"$GX" stats --server fol.sock --health | grep -q '^epoch 2$' || { echo "FAIL: promoted daemon health missing epoch 2" >&2; fails=$((fails+1)); }
"$GX" stats --server fol.sock --health | grep -q '^role primary$' || { echo "FAIL: promoted daemon still a replica" >&2; fails=$((fails+1)); }

"$GX" update --server fol.sock -a u1.xml >ack.txt
expect_exit "promoted daemon accepts updates" 0 $?
grep -q '^acknowledged 1 operation' ack.txt || { echo "FAIL: post-promotion update not acknowledged" >&2; fails=$((fails+1)); }

kill -TERM $FOL $PRI
wait $FOL $PRI 2>/dev/null

# --- workload replay + SLO gate: a tiny seeded scenario runs end to
# --- end, gates green against its own output, and the gate exits
# --- non-zero naming scenario + metric against a tightened baseline ---
timeout 30 "$GX" workload --scale 0.1 --seed 42 --scenario zipf-read-only --out wl.json >wl.log 2>&1
expect_exit "workload scaled run" 0 $?
grep -q '"name": "zipf-read-only"' wl.json || { echo "FAIL: workload run JSON missing the scenario" >&2; cat wl.log >&2; fails=$((fails+1)); }
grep -q '"p99_ms":' wl.json || { echo "FAIL: workload run JSON missing p99" >&2; fails=$((fails+1)); }

timeout 30 "$GX" workload --gate wl.json --against wl.json >gate.log
expect_exit "workload gate vs identical results" 0 $?
grep -q 'PASS' gate.log || { echo "FAIL: identical gate did not report PASS" >&2; fails=$((fails+1)); }

# tighten the baseline far below the slack floor: the fresh numbers must
# now violate the p99 SLO, and the failure must name scenario + metric
sed 's/"p99_ms": [0-9.]*/"p99_ms": 400.0/; s/"p95_ms": [0-9.]*/"p95_ms": 400.0/' wl.json > regressed.json
timeout 30 "$GX" workload --gate wl.json --against regressed.json 2>gate-err.txt
expect_exit "workload gate flags the regression" 1 $?
grep -q 'zipf-read-only' gate-err.txt || { echo "FAIL: gate violation does not name the scenario" >&2; cat gate-err.txt >&2; fails=$((fails+1)); }
grep -q 'p99_ms' gate-err.txt || { echo "FAIL: gate violation does not name the metric" >&2; cat gate-err.txt >&2; fails=$((fails+1)); }

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI smoke failure(s)" >&2
  exit 1
fi
echo "CLI smoke: all checks passed"
