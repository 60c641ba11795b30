#!/usr/bin/env bash
# Unsafe inventory gate: fails when any Rust file of the workspace holds an
# `unsafe` block, fn, impl, trait or extern outside the files listed below.
# The list is the whole inventory (docs/ARCHITECTURE.md, "unsafe sites"):
# adding a site means adding its file here, in review.
#
# Usage: scripts/unsafe_check.sh   (from anywhere; exits 1 on a stray site)
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=(
    crates/tensor/src/simd.rs    # tensor::simd: AVX2/AVX-512 kernels
    crates/tensor/src/pool.rs    # tensor::pool: scoped jobs on pool threads
    crates/tensor/src/backend.rs # tensor::backend: disjoint output row bands
    crates/serve/src/netpoll.rs  # serve::netpoll: the poll(2) syscall
    crates/trace/src/crc.rs      # trace::crc: the PCLMULQDQ CRC-32 fold
)

# the workspace's members and the test/example targets they build
# (perfbench/ is a package of its own, outside the workspace)
stray=0
while IFS= read -r file; do
    for ok in "${allowed[@]}"; do
        [ "$file" = "$ok" ] && continue 2
    done
    # drop line comments, then look for the keyword opening a site
    if hits=$(sed 's://.*$::' "$file" | grep -nE '\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)'); then
        while IFS= read -r hit; do
            echo "unsafe_check: $file:$hit"
        done <<<"$hits"
        stray=1
    fi
done < <(find crates shims tests examples -name '*.rs' | sort)

if [ "$stray" -ne 0 ]; then
    echo "unsafe_check: unsafe outside the allowed files (see the list in $0)" >&2
    exit 1
fi
echo "unsafe_check: unsafe only in ${#allowed[@]} allowed files"
