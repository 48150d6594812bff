#!/usr/bin/env bash
# Vectorization guard for the SIMD kernel bodies.
#
# Compiles src/compressor/kernels/kernels_avx2.cpp with the project's
# kernel flags (OCELOT_KERNEL_SIMD_FLAGS in CMakeLists.txt) plus GCC's
# vectorizer report, at -O2 (RelWithDebInfo) and -O3 (Release), and
# fails unless every loop under an OCELOT_SIMD_* pragma in
# line_kernels.inl reports "loop vectorized" and no instantiation of it
# reports "not vectorized". Kernel loops keep the layout pragma line,
# `for` line, first body statement, which is where GCC files the
# verdict. A kernel that compiles and passes the
# byte-identity tests while silently running scalar code fails here.
# The loops: the quantize and dequantize line loops (three predictor
# modes each), the zero count, the u32 min/max histogram probe, and the
# min and max lane loops of the value-range scan.
#
#   tools/check_vectorized.sh        # compiler: $CXX, else g++
set -euo pipefail

cd "$(dirname "$0")/.."

CXX_BIN="${CXX:-g++}"
if ! "$CXX_BIN" --version 2>/dev/null | head -n1 | grep -qE 'g\+\+|GCC'; then
  echo "check_vectorized: needs GCC's -fopt-info report ($CXX_BIN is not GCC)" >&2
  exit 2
fi

FLAGS=$(sed -n 's/^set(OCELOT_KERNEL_SIMD_FLAGS \(.*\))$/\1/p' CMakeLists.txt)
if [[ -z "$FLAGS" ]]; then
  echo "check_vectorized: OCELOT_KERNEL_SIMD_FLAGS not found in CMakeLists.txt" >&2
  exit 1
fi

TU=src/compressor/kernels/kernels_avx2.cpp
INL=src/compressor/kernels/line_kernels.inl
# Pragma lines: the macro alone on a line (not its #define or a comment).
mapfile -t PRAGMAS < <(grep -nE '^[[:space:]]*OCELOT_SIMD_[A-Z]+[[:space:]]*$' "$INL" |
                       cut -d: -f1)
if [[ ${#PRAGMAS[@]} -eq 0 ]]; then
  echo "check_vectorized: no OCELOT_SIMD_* loops found in $INL" >&2
  exit 1
fi

echo "== $("$CXX_BIN" --version | head -n1)"
echo "== kernel flags: $FLAGS"
failed=0
for opt in -O2 -O3; do
  # shellcheck disable=SC2086  # FLAGS is a list of separate options
  report=$("$CXX_BIN" -std=c++20 "$opt" -DNDEBUG -Isrc -DOCELOT_HAVE_AVX2_TU=1 \
             $FLAGS -fopt-info-vec-all -c "$TU" -o /dev/null 2>&1 |
           grep -F "line_kernels.inl:" || true)
  for line in "${PRAGMAS[@]}"; do
    # GCC files each loop's verdict under its first body statement: the
    # pragma, then the `for` line, then the body. (omp simd's reduction
    # scaffolding reports on the pragma and `for` lines; not checked.)
    body=$((line + 2))
    vectorized=$(grep -cE "inl:$body:[0-9]+: optimized: loop vectorized" \
                 <<<"$report" || true)
    missed=$(grep -E "inl:$body:[0-9]+: missed: (couldn't vectorize loop|not vectorized)" \
             <<<"$report" || true)
    if [[ "$vectorized" -eq 0 || -n "$missed" ]]; then
      echo "FAIL $opt $INL:$line: $(sed -n "${body}p" "$INL" | sed 's/^ *//')"
      if [[ -n "$missed" ]]; then sed 's/^/       /' <<<"$missed"; fi
      failed=1
    else
      echo "ok   $opt $INL:$line"
    fi
  done
done

if [[ $failed -ne 0 ]]; then
  echo "check_vectorized: some SIMD kernel loops did not vectorize" >&2
  exit 1
fi
echo "check_vectorized: all ${#PRAGMAS[@]} SIMD loops vectorize at -O2 and -O3"
