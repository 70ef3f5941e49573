#ifndef GAIA_UTIL_COMPILER_H_
#define GAIA_UTIL_COMPILER_H_

/// Compiler hints shared by the hot kernels. Kept in one tiny header so the
/// tensor ops and any future kernel agree on the spelling.

/// No-alias pointer qualifier. The packed GEMM and the vectorized inner
/// loops in tensor_ops.cc use it to tell the autovectorizer that input and
/// output spans never overlap, which is what lets a
/// `for (j) out[j] += a * in[j]` body compile to mulps/addps instead of a
/// scalar load-op-store chain.
#if defined(__GNUC__) || defined(__clang__)
#define GAIA_RESTRICT __restrict__
#else
#define GAIA_RESTRICT
#endif

/// Force-inline for the GEMM micro-kernel: the whole point of the 8x8 tile
/// is that it lives in registers, which dies if the call is outlined.
#if defined(__GNUC__) || defined(__clang__)
#define GAIA_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define GAIA_ALWAYS_INLINE inline
#endif

#endif  // GAIA_UTIL_COMPILER_H_
