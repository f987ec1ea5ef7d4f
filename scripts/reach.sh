#!/usr/bin/env bash
# Lists what no command reaches: every function under internal/ that
# stays at 0 % coverage after running what a user can type at quick
# scale (the commands README shows among them), and every internal
# package no command links at all.
#
#   bash scripts/reach.sh > scripts/reach.txt
#
# Needs only the Go toolchain (go >= 1.20, `go build -cover`) and
# loopback TCP; takes about 30 minutes on two cores, nearly all of it
# `oktopk-bench all`. Binaries, coverage data, run outputs and the log
# of every run go to .reach_build/ inside the checkout. Stdout is a
# `#`-prefixed header, then the list, one `file<TAB>function` per line
# without line numbers and sorted, so two runs diff cleanly.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.reach_build"
rm -rf "$build"
mkdir -p "$build/cov" "$build/out"
export GOTOOLCHAIN=local
log="$build/log"

# -coverpkg must include the main packages: a binary whose main is not
# instrumented writes no coverage data. The report keeps internal/ only.
cmds="oktopk-bench oktopk-train oktopk-worker"
for c in $cmds; do
	go build -cover -coverpkg=./... -o "$build/$c" "./cmd/$c"
done
go build -cover -coverpkg=./... -o "$build/bench" ./bench
go build -cover -coverpkg=./... -o "$build/quickstart" ./examples/quickstart

export GOCOVERDIR="$build/cov"
run() {
	echo "== $*" >>"$log"
	"$@" >>"$log" 2>&1 || { echo "reach.sh: failed: $* (see $log)" >&2; exit 1; }
}
ob="$build/oktopk-bench" ot="$build/oktopk-train"

# oktopk-bench: `all` holds every runner (ovlp and topo among them; the
# tcpsmoke runner stays inproc without -transport tcp).
run "$ob" list
run "$ob" -out "$build/out" -trace "$build/out/traces" all
run "$ob" -wire f32 table1
run "$ob" -transport tcp tcpsmoke
run "$ob" -topology nvlink -node-size 2 -straggler 0.5 fig7

# oktopk-train: checkpoint, resume, trace, every algorithm family once,
# then the same over tcp — once re-executing itself, once through the
# dedicated worker binary.
ck="$build/out/ck.gob"
run "$ot" -workload VGG -algo OkTopk -p 4 -iters 8 -eval 4 -tau 4 -tauprime 2 -checkpoint "$ck" -ckpt-every 4
run "$ot" -workload VGG -algo OkTopk -p 4 -iters 12 -eval 4 -tau 4 -tauprime 2 -resume "$ck" -trace "$build/out/train.trace"
run "$ot" -workload LSTM -algo DenseOvlp -p 4 -iters 4 -eval 2 -wire f32
run "$ot" -workload BERT -algo Gaussiank -p 4 -iters 4 -eval 2 -commodity
run "$ot" -workload VGG -algo Hierarchical -p 8 -iters 4 -eval 2 -topology fattree -straggler 0.5
run "$ot" -transport tcp -workload VGG -algo OkTopk -p 4 -iters 8 -eval 4 -tau 4 -tauprime 2 -checkpoint "$ck" -ckpt-every 4
run "$ot" -transport tcp -workload VGG -algo OkTopk -p 4 -iters 12 -eval 4 -tau 4 -tauprime 2 -resume "$ck"
run env OKTOPK_WORKER_EXE="$build/oktopk-worker" "$ot" -transport tcp -workload VGG -algo Dense -p 2 -iters 2 -eval 1
# BERT trains with Adam: the checkpoint carries its moments, the resume
# installs them.
bck="$build/out/bert.gob"
run "$ot" -workload BERT -algo OkTopk -p 2 -iters 4 -eval 2 -tau 2 -tauprime 2 -checkpoint "$bck" -ckpt-every 2
run "$ot" -workload BERT -algo OkTopk -p 2 -iters 6 -eval 2 -tau 2 -tauprime 2 -resume "$bck"

# The API walk-through README runs.
run "$build/quickstart"

# bench: each workload traced — a traced run is a plain pass, a traced
# pass and the probes of the layers the workload stresses, so the four
# together hold every probe.
for w in train-vgg reduce-oktopk reduce-dense-f32 reduce-tcp; do
	run "$build/bench" --workload "$w" --seed 1 --seconds 2 --trace 1
done

# Linked code that no command runs, and why each stays. Printed first so
# a regenerated list keeps it.
cat <<'EOF'
# What no command reaches: every internal/ function left at 0 % coverage
# after the runs in scripts/reach.sh, one file<TAB>function per line.
# Regenerate with `bash scripts/reach.sh > scripts/reach.txt`. Each line
# is one of:
# - an interface method no run calls: Algorithm's Name and
#   OverlapsBackward, Endpoint methods (Comm's and Group's), Transport
#   methods, error, fmt.Stringer and io.Writer methods;
# - an error path (a failed mailbox, frame, queue or connection, a
#   receive deadline, the stderr tail of a failed worker) or the
#   big-endian swapWords;
# - a merge-kernel oracle the sparse tests compare against: Vec.Clone,
#   Validate, Add, FromDense and FromPairs;
# - linked code that no command runs, kept for these reasons:
#   - conformance.Run and its digests, reached only through
#     worker.runConformance (the "conformance" job kind the
#     multi-process conformance test launches), with the Cluster.Size
#     it reads and the Clock.DrainSends behind Comm.DrainSends; they stay
#     until a command or a soak drives them;
#   - chaos.NewRandomPlan, the chaos hook (hook.OnFrame, Fault.armed)
#     and tcpTransport.inject: seeded fault plans for the chaos tests;
#     they stay until a soak drives them;
#   - Cluster.Abort: how the failure tests kill a rank without the
#     shutdown handshake;
#   - Cluster.PooledBuffers: what the ownership test
#     (ownership_test.go, check ①) reads to see every pooled buffer;
#   - Message.payload: the generic Comm.Recv's payload, an Endpoint
#     method no run calls;
#   - experiments.FullScale: the paper-scale -full sizes, too slow for
#     this script (a gated CI job runs one of its configurations).
# - cluster/clustertest, the in-process tcp job the conformance, chaos
#   and collectives tests start: test support, linked into no command.
EOF
{
	go tool covdata func -i="$build/cov" |
		awk '$NF == "0.0%" && $1 ~ /^repro\/internal\// { sub(/:[0-9]+:$/, "", $1); print $1 "\t" $2 }'
	# A package no command imports is in no binary, hence in no
	# coverage data: list it whole.
	linked=$(for c in $cmds; do go list -deps "./cmd/$c"; done; go list -deps ./bench)
	for p in $(go list ./internal/...); do
		grep -qxF "$p" <<<"$linked" || printf '%s\t(package linked into no command)\n' "$p"
	done
} | LC_ALL=C sort -u
