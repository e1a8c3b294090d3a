#!/usr/bin/env sh
# Tier-1 verification, runnable on a machine with no network and no
# vendored registry: the workspace has zero crates.io dependencies, so
# --offline must always succeed from a bare checkout.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (the root package and every crate) =="
# Every suite of every crate, once, at the default pool size. The stages
# below rerun a suite only at LASAGNE_THREADS 1 and 4, or drive a binary.
cargo test -q --offline

echo "== cargo clippy, whole workspace, every target, warnings denied =="
# A deliberate flagged form carries #[allow(clippy::...)] with its reason.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc, whole workspace, warnings denied =="
# Intra-doc links must resolve: a deleted or renamed item that a doc
# comment still links to fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== lasagne-train, whole crate, at 1 and 4 threads =="
# Its unit tests (the checkpoint envelope: writer bytes, every one-bit flip
# failing typed, non-canonical layouts, truncation, .prev fallback), fault
# injection (rollback, checksum fallback, bit-identical resume), the trace
# determinism suite, and the partition equivalence and fault suites.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-train
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-train

echo "== release CLI links with --resume/--max-recoveries/--clip-norm =="
cargo run --release --offline --bin lasagne-cli -- --list > /dev/null

echo "== determinism across thread counts (LASAGNE_THREADS=1 vs 4) =="
# The kernel suites under both pool sizes, among them the kernel
# equivalence suites: the blocked matmul family (every tile instantiation
# this CPU runs) and the column-blocked SpMM must compute bit for bit what
# the pre-blocking seed loops computed (`blocked_equiv`, `spmm_blocked`, the
# matmul.rs unit tests; the suites also sweep thread counts internally)...
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-tensor -p lasagne-sparse
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-tensor -p lasagne-sparse
# ...and a short end-to-end training run: the saved checkpoints must be
# byte-identical (same JSON, same bits) whatever the thread count.
LASAGNE_THREADS=1 cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_t1.ckpt.json > /dev/null
LASAGNE_THREADS=4 cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_t4.ckpt.json > /dev/null
cmp target/verify_t1.ckpt.json target/verify_t4.ckpt.json

echo "== evaluator: one op kernel + one dependency rule under every schedule, at 1 and 4 threads =="
# DESIGN.md §10 "One evaluator": autograd's unit tests (peval, export),
# gradcheck, random_programs and the schedules property suite (random
# exported programs: demand subsets and dirty patches bitwise vs all rows),
# plus serve's unit tests (quant.rs, incl. the exhaustive f16 check).
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-autograd
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-autograd
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --lib
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --lib
# Both engines rank classes the same way (first maximum on ties), a
# binding-free lazy engine splits into exactly the requested part count,
# and a graph-bound one counts only non-empty parts, so a full sweep fills
# every part it reports at every k.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test query_contract
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test query_contract
# The benchmark compiles against the evaluator's public API; an API change
# that breaks it fails here rather than only in the benchmark pipeline.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== lasagne-core, whole crate, at 1 and 4 threads =="
# Its unit tests (GC-FM fast path vs brute-force Eq 7 among them), the
# gradcheck sweep and the batched-vs-per-class GC-FM suite, at both pool
# sizes. (The 13-baseline sweep, lasagne-gnn's `gradcheck_models`, runs in
# the first stage.)
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-core
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-core

echo "== trace: artifact is valid and has the expected spans =="
# The --resume run saves a checkpoint every epoch, so tracecheck's required
# spans include the envelope write (`envelope.serialize`).
rm -f target/verify_trace.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_trace.ckpt.json \
    --trace-out target/verify_trace.jsonl --trace-summary > /dev/null
cargo run --release --offline -p lasagne-obs --bin tracecheck -- \
    target/verify_trace.jsonl

echo "== trace: deterministic artifacts are byte-identical across runs =="
rm -f target/verify_det.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_det.ckpt.json \
    --trace-out target/verify_det_a.jsonl --trace-deterministic > /dev/null
rm -f target/verify_det.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_det.ckpt.json \
    --trace-out target/verify_det_b.jsonl --trace-deterministic > /dev/null
cmp target/verify_det_a.jsonl target/verify_det_b.jsonl

echo "== trace: tracing does not perturb training (checkpoints bitwise equal) =="
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_traced.ckpt.json \
    --trace-out target/verify_traced.jsonl > /dev/null
cmp target/verify_t1.ckpt.json target/verify_traced.ckpt.json

echo "== kernels bench smoke (tiny shapes, JSON artifact, disabled-span contract) =="
cargo run --release --offline -p lasagne-bench --bin kernels -- \
    --smoke --out target/BENCH_kernels.smoke.json > /dev/null
test -s target/BENCH_kernels.smoke.json

echo "== serve: frozen export is byte-deterministic (same run, same bytes) =="
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export target/verify_frozen_a.json > /dev/null
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export target/verify_frozen_b.json > /dev/null
cmp target/verify_frozen_a.json target/verify_frozen_b.json

echo "== serve: live server conforms to the wire protocol =="
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17878 > /dev/null &
SERVE_PID=$!
# The --check drive retries its connect, so no sleep-and-hope here; it
# sends well-formed, malformed, and out-of-range requests and asserts
# every typed response and that health and stats describe the served file
# (--frozen: node count, quantized), then --shutdown stops the server.
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17878 --frozen target/verify_frozen_a.json
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17878
wait "$SERVE_PID"

echo "== serve: quantized export + serve smoke (opt-in path, DESIGN.md 13) =="
# The i8 artifact must be byte-deterministic, strictly smaller than the
# exact f32 artifact, refused by a plain `serve`, and served cleanly under
# `serve --quantized` (protocol check included). The logit-tolerance and
# bitwise fused-kernel contracts are covered by lasagne-serve's `quantized`
# suite in the first stage.
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export-quantized target/verify_quant_a.json > /dev/null
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export-quantized target/verify_quant_b.json > /dev/null
cmp target/verify_quant_a.json target/verify_quant_b.json
F32_BYTES=$(wc -c < target/verify_frozen_a.json)
QUANT_BYTES=$(wc -c < target/verify_quant_a.json)
test "$QUANT_BYTES" -lt "$F32_BYTES"
if cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_quant_a.json --port 17880 > /dev/null 2>&1; then
  echo "serving a quantized artifact without --quantized must be refused"; exit 1
fi
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_quant_a.json --quantized --port 17880 > /dev/null &
QUANT_PID=$!
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17880 --frozen target/verify_quant_a.json
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17880
wait "$QUANT_PID"

echo "== serve bench smoke (in-process server, 1/8/64 clients, saturation knee, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --smoke --out target/BENCH_serve.smoke.json > /dev/null
test -s target/BENCH_serve.smoke.json

echo "== overload soak: 30s flood at 4x the knee with chaos clients, hot swap mid-flood =="
# Pass criteria enforced by the binary (DESIGN.md §12): zero untyped
# failures under flood + garbage + slowloris + hangups, health p99 < 5ms
# on the fast path throughout, the mid-soak swap installs atomically, and
# shutdown drains cleanly.
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --soak --duration-s 30

echo "== streaming: live mutated server is bitwise-equal to a cold engine on the final graph =="
# The drive replays a scripted mutation session over TCP against a server
# running the incremental path, then dumps every node's prediction bits; it
# fails unless some mutation answered "full_recompute": false. The
# reference mutates no engine: it replays the script on the frozen file's
# adjacency entries, builds the final adjacency with Csr::from_coo,
# re-derives the operators and dumps a cold Engine::new. cmp of the two
# dumps is the end-to-end exactness check of DESIGN.md §11.
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17879 > /dev/null &
STREAM_PID=$!
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --drive --addr 127.0.0.1:17879 --seed 7 --mutations 40 \
    --out target/verify_stream_drive.txt
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17879
wait "$STREAM_PID"
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --reference --frozen target/verify_frozen_a.json --seed 7 --mutations 40 \
    --out target/verify_stream_reference.txt
cmp target/verify_stream_drive.txt target/verify_stream_reference.txt

echo "== streaming bench smoke (latency vs dirty-set size, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --smoke --out target/BENCH_streaming.smoke.json > /dev/null
test -s target/BENCH_streaming.smoke.json

echo "== partitioning: property suite + equivalence harnesses at 1 and 4 threads =="
# The partition-equivalence contract (DESIGN.md §14): partitioned eval,
# streamed out-of-core training, and lazy partitioned serving are bitwise
# identical to the resident paths, at both pool sizes; corrupted partition
# blocks always fail typed. The lasagne-train suites (partition_equiv,
# partition_faults) run with the whole crate above.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-graph --test partition
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-graph --test partition
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test partition_equiv
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test partition_equiv

echo "== partitioned serving: lazy servers conform to the wire protocol =="
# The exact and the i8 artifact: both engines bind the same load-time
# dequantized weights, so a quantized artifact serves lazily too.
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --partitions 4 --port 17881 > /dev/null &
LAZY_PID=$!
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17881 --frozen target/verify_frozen_a.json
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17881
wait "$LAZY_PID"
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_quant_a.json --quantized --partitions 4 --port 17884 > /dev/null &
LAZY_QUANT_PID=$!
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17884 --frozen target/verify_quant_a.json
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17884
wait "$LAZY_QUANT_PID"

echo "== scale bench smoke (per-mode child processes, peak-RSS regression guard) =="
# Exits non-zero unless partitioned peak RSS is strictly below resident
# peak RSS on the largest smoke graph — the out-of-core memory claim,
# measured, not asserted.
cargo run --release --offline -p lasagne-bench --bin scale-bench -- \
    --smoke --out target/BENCH_scale.smoke.json
test -s target/BENCH_scale.smoke.json

echo "== rec: frozen-forward and serving suites at 1 and 4 threads =="
# The recommendation contract (DESIGN.md §15): frozen `recommend` is
# bitwise the training-side ranker at both pool sizes. (The edge-data
# suites, `edgedata` and `bipartite_attrs`, run in the first stage.)
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test frozen_forward
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test frozen_forward
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test rec_serving
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test rec_serving

echo "== rec: exported artifact is byte-deterministic =="
cargo run --release --offline --bin lasagne-cli -- \
    rec --epochs 3 --export target/verify_rec_a.json > /dev/null
cargo run --release --offline --bin lasagne-cli -- \
    rec --epochs 3 --export target/verify_rec_b.json > /dev/null
cmp target/verify_rec_a.json target/verify_rec_b.json

echo "== rec: live servers, resident and partition-lazy, conform to the recommend protocol =="
# The check regenerates the dataset from the same seed and asserts slate
# shape (sorted, deduped, never a seen item), plus typed refusals for
# k=0, item ids, and out-of-range nodes — against a real TCP server. The
# lazy server (--partitions 3) ranks with the same function over the same
# rows; it runs here because this stage exports the artifact.
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_rec_a.json --port 17882 > /dev/null &
REC_PID=$!
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --check --addr 127.0.0.1:17882 --seed 0
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17882
wait "$REC_PID"
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_rec_a.json --partitions 3 --port 17885 > /dev/null &
LAZY_REC_PID=$!
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --check --addr 127.0.0.1:17885 --seed 0
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17885
wait "$LAZY_REC_PID"

echo "== rec: classification server refuses recommend typed =="
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17883 > /dev/null &
CLS_PID=$!
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --expect-not-recommender --addr 127.0.0.1:17883
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17883
wait "$CLS_PID"

echo "== rec bench smoke (hit-rate@10 must beat popularity, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --smoke --out target/BENCH_rec.smoke.json > /dev/null
test -s target/BENCH_rec.smoke.json

echo "verify: OK"
