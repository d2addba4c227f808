#!/usr/bin/env sh
# Results identity gate.
#
# Regenerates every committed results/* artifact from the current tree and
# byte-diffs each against its committed copy. The committed results are
# the behavioural spec: a change that is not meant to move a number must
# leave all of them byte-identical.
#
# - The figure and ablation harnesses run in full mode
#   (`cargo bench -p vt-bench --bench <name> -- --full`); the file they
#   save under the output directory is compared, not their stdout (which
#   carries an extra trailing newline).
# - ablation_chaos.txt, ablation_repair.txt and analyze_matrix.json are
#   `vtsim chaos`, `vtsim repair` and
#   `vtsim analyze --matrix on --format json --threads 2` verbatim.
# - ablation_serving.txt is the flash-crowd, steady and load-repack
#   `vtsim serve` presets joined by blank lines.
#
# Exits non-zero when any artifact differs or is missing; regenerated
# copies stay under target/results_identity for inspection. A full run
# takes a few minutes of release wall time, dominated by fig9_nwchem.
#
# Usage: scripts/results_identity.sh
set -eu
cd "$(dirname "$0")/.."
# Absolute: cargo runs bench binaries from their own package directory.
out="$(pwd)/target/results_identity"
rm -rf "$out"
mkdir -p "$out"

cargo build --release --bin vtsim
vtsim=./target/release/vtsim

for bench in fig5_memory fig6_vector_ops fig7_fetch_add fig8_nas_lu fig9_nwchem \
    ablation_buffers ablation_coalescing ablation_dimensions ablation_faults \
    ablation_placement ablation_platforms ablation_streams; do
    echo "regenerating $bench"
    cargo bench -q -p vt-bench --bench "$bench" -- --full --out-dir "$out" >/dev/null
done

echo "regenerating ablation_chaos, ablation_repair, analyze_matrix, ablation_serving"
"$vtsim" chaos >"$out/ablation_chaos.txt"
"$vtsim" repair >"$out/ablation_repair.txt"
"$vtsim" analyze --matrix on --format json --threads 2 >"$out/analyze_matrix.json"
{
    "$vtsim" serve --preset flash-crowd --curve 0.25,0.5,1,2
    echo
    "$vtsim" serve --preset steady
    echo
    "$vtsim" serve --preset load-repack
} >"$out/ablation_serving.txt"

status=0
for committed in results/*; do
    name=$(basename "$committed")
    if [ ! -f "$out/$name" ]; then
        echo "MISSING   $name (no generator regenerated it)"
        status=1
    elif cmp -s "$committed" "$out/$name"; then
        echo "identical $name"
    else
        echo "DIFFERS   $name"
        diff "$committed" "$out/$name" | head -20 || true
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "results identity FAILED"
fi
exit "$status"
