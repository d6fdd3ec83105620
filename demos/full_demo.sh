#!/bin/sh
# Full scripted scenario: upload, dynamic operations, tampering, detection,
# recovery, audit. All state lands under <workdir>/ledger; identical seeds
# reproduce identical ledger directories byte for byte.
#
# usage: full_demo.sh <workdir> [seed]
set -eu

WORKDIR=${1:?usage: full_demo.sh <workdir> [seed]}
SEED=${2:-42}
LEDGER="$WORKDIR/ledger"
CL="python3 -m cloudledger"

mkdir -p "$WORKDIR"

echo "=== initial upload: 5000 seeded bytes over 5 servers, 64-byte blocks ==="
$CL --servers 5 --block-size 64 --mode checksum --seed "$SEED" --ledger-dir "$LEDGER" \
    upload --gen-bytes 5000

echo "=== clean verify ==="
$CL --ledger-dir "$LEDGER" verify --report

echo "=== dynamic operations: append, update, delete ==="
$CL --ledger-dir "$LEDGER" append --server 0 --gen-bytes 200
$CL --ledger-dir "$LEDGER" update --server 1 --block 0 --gen-bytes 32
$CL --ledger-dir "$LEDGER" delete --server 2 --block 1
$CL --ledger-dir "$LEDGER" verify

echo "=== tamper with one byte; detection localizes it ==="
$CL --ledger-dir "$LEDGER" tamper --kind flip-byte --server 0 --block 0 --fault-seed 7
$CL --ledger-dir "$LEDGER" verify --report || echo "verification failed as expected (exit $?)"

echo "=== recover from the last restore point ==="
$CL --ledger-dir "$LEDGER" recover
$CL --ledger-dir "$LEDGER" verify

echo "=== crash a whole server; restore point brings it back ==="
$CL --ledger-dir "$LEDGER" crash --server 3
$CL --ledger-dir "$LEDGER" recover
$CL --ledger-dir "$LEDGER" verify

echo "=== CSP serves a stale manifest to hide state; detected and healed ==="
$CL --ledger-dir "$LEDGER" tamper --kind stale-manifest --server 0
$CL --ledger-dir "$LEDGER" verify --report || echo "stale manifest detected (exit $?)"
$CL --ledger-dir "$LEDGER" recover
$CL --ledger-dir "$LEDGER" verify

# Auditing an old epoch compares its manifest against what the cloud serves
# NOW, so epochs whose blocks were later updated or deleted report honest
# divergences; the current epoch is the live integrity check.
echo "=== third-party audit of the current epoch ==="
$CL --ledger-dir "$LEDGER" audit --epochs 3
echo "=== third-party audit of every committed epoch ==="
$CL --ledger-dir "$LEDGER" audit --epochs 0..3 || echo "older epochs diverge as expected (exit $?)"

echo "=== operation journal and summary ==="
$CL --ledger-dir "$LEDGER" history
$CL --ledger-dir "$LEDGER" report
