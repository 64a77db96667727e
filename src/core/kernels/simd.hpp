// SIMD distance-kernel layer: explicit vector implementations of the inner
// loops (dist_sq / dot / nearest-centroid) with runtime ISA dispatch.
//
// Every engine funnels its per-point arithmetic through the `Ops` table
// returned by ops(); which implementation backs it is decided once per
// process from (in priority order) the programmatic override set_isa()
// (plumbed from Options::simd / CLI --simd), the KNOR_SIMD environment
// variable, and CPUID detection, clamped to what this binary was compiled
// with and what the CPU supports (avx512 -> avx2 -> sse2 -> scalar).
//
// Determinism contract (extends DESIGN.md §7 to the instruction level):
//  * Each ISA variant uses a FIXED lane count and a FIXED horizontal-
//    reduction tree, so for a given selected ISA results are bitwise
//    invariant across runs, thread counts and scheduling policies.
//  * For every ISA, the blocked nearest-centroid kernel interleaves the
//    exact per-centroid accumulator/reduction sequence of that ISA's
//    dist_sq, so blocked and per-centroid distance values are bitwise
//    IDENTICAL. The candidate-list kernel dist_sq_list runs the same tile
//    schedule over the rows a list names. This is what keeps the MTI-
//    pruned path (dist_sq_list over a row's candidates) in exact agreement
//    with the full-scan path (nearest_blocked) — pruned vs. unpruned runs
//    stay bitwise-equal under any ISA.
//  * Isa::kScalar is the legacy reference in core/distance.hpp, bit-for-
//    bit: `--simd scalar` reproduces the pre-SIMD clusterings of every
//    Lloyd-family engine exactly. (Two call sites were normalized in the
//    move and differ from pre-SIMD in final ulps under any ISA: gemm's
//    stand-in inner product now uses the shared dot kernel instead of its
//    private sequential loop, and minibatch's energy accumulates exact
//    squared distances instead of sqrt-then-square.)
//  * The fused GEMM-argmin kernel accumulates every (row, centroid) dot
//    product strictly sequentially over the depth dimension (one panel
//    lane per centroid), so its result is additionally bitwise invariant
//    across cache-tile shapes and panel-range splits for a given ISA
//    (DESIGN.md §12).
//  * Different ISAs may differ in the last ulp on fractional data (FMA,
//    different association); on integer-valued data every sum is exact so
//    all ISAs agree bitwise (tests/conformance_test.cpp relies on this).
#pragma once

#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/dense_matrix.hpp"
#include "common/types.hpp"

namespace knor::kernels {

/// Instruction-set choice. kAuto defers to env/CPUID at dispatch time.
enum class Isa { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3, kAuto = 4 };

inline constexpr int kNumIsas = 4;  // dispatchable entries (kAuto excluded)

const char* to_string(Isa isa);

/// Parses "auto" | "scalar" | "sse2" | "avx2" | "avx512". Returns false on
/// anything else (out untouched).
bool parse_isa(const std::string& name, Isa* out);

/// The throwing form every selection surface shares: CLI flags and the
/// KNOR_SIMD environment variable reject unknown names through this one
/// parser (std::invalid_argument naming `what`), so a typo can never
/// silently fall back to a different ISA.
Isa parse_isa_or_throw(const std::string& name, const char* what);

/// Centroid matrix re-packed for aligned SIMD streaming: k rows, each
/// padded to a 64-byte multiple (stride() doubles, zero-filled beyond d).
/// Every row(c) is 64-byte aligned, so full-width aligned loads are legal
/// for any j < d that is a multiple of the lane width; padding lanes are
/// exactly +0.0 and contribute nothing to a squared-distance accumulation.
/// Engines rebuild the pack once per iteration (O(k*d), noise next to the
/// O(n*k*d) scan it accelerates).
class CentroidPack {
 public:
  /// Doubles per 64-byte cache line; row strides are rounded up to this.
  static constexpr index_t kLaneAlign = kCacheLine / sizeof(value_t);

  static index_t padded_stride(index_t d) {
    return (d + kLaneAlign - 1) / kLaneAlign * kLaneAlign;
  }

  CentroidPack() = default;

  /// (Re)pack `k` x `d` row-major centroids; reuses storage when the shape
  /// is unchanged. Padding stays zero across repacks.
  void pack(const value_t* centroids, int k, index_t d);
  void pack(const DenseMatrix& m) {
    pack(m.data(), static_cast<int>(m.rows()), m.cols());
  }

  const value_t* row(int c) const {
    return buf_.data() + static_cast<std::size_t>(c) * stride_;
  }
  int k() const { return k_; }
  index_t d() const { return d_; }
  index_t stride() const { return stride_; }
  bool empty() const { return k_ == 0; }

 private:
  AlignedBuffer<value_t> buf_;
  int k_ = 0;
  index_t d_ = 0;
  index_t stride_ = 0;
};

/// Centroids per GEMM panel: one 64-byte cache line of doubles. The
/// blocked-GEMM engine packs centroids into a TiledMatrix with
/// row_block == kGemmPanelWidth, so each depth step of a panel is a single
/// aligned column line every ISA consumes in its own lane width (8 scalar
/// adds / 4 SSE2 pairs / 2 AVX2 quads / 1 AVX-512 vector). The panel width
/// is ISA-independent on purpose: one pack per iteration serves every
/// kernel table, and lane j of a column line always belongs to centroid
/// panel_base + j.
inline constexpr index_t kGemmPanelWidth = kCacheLine / sizeof(value_t);

/// One ISA's kernel table. All distances are SQUARED Euclidean — the
/// single sqrt the MTI bookkeeping needs lives at its call site.
struct Ops {
  Isa isa = Isa::kScalar;
  /// Squared Euclidean distance between two unaligned d-vectors.
  value_t (*dist_sq)(const value_t* a, const value_t* b, index_t d) = nullptr;
  /// Inner product of two unaligned d-vectors.
  value_t (*dot)(const value_t* a, const value_t* b, index_t d) = nullptr;
  /// Argmin over k unpadded row-major centroids (ties -> lowest index);
  /// writes the squared distance to *out_sq when non-null.
  cluster_t (*nearest)(const value_t* point, const value_t* centroids, int k,
                       index_t d, value_t* out_sq) = nullptr;
  /// Blocked argmin over a CentroidPack: streams the point once against
  /// register-blocked tiles of centroids. Bitwise-identical result to k
  /// independent dist_sq calls (see the header comment).
  cluster_t (*nearest_blocked)(const value_t* point, const CentroidPack& pack,
                               value_t* out_sq) = nullptr;
  /// Squared distances from `point` to the m pack rows listed in `idx`
  /// (any order, repeats allowed; m == 0 writes nothing): out[i] is
  /// bitwise equal to dist_sq(point, row idx[i], d). Blocked like
  /// nearest_blocked, so one call evaluates a whole candidate list.
  void (*dist_sq_list)(const value_t* point, const CentroidPack& pack,
                       const cluster_t* idx, int m, value_t* out) = nullptr;
  /// Fused blocked-GEMM argmin epilogue (DESIGN.md §12): streams `mrows`
  /// row-major data rows (leading dimension lda) against centroid panels
  /// [p0, p1) of `b` — a TiledMatrix packed from the k x d centroid matrix
  /// with row_block == kGemmPanelWidth — updating per-row running state
  ///   score[i] = min_j  ||c_j||^2 - 2 <x_i, c_j>     (cnorm[j] = ||c_j||^2)
  /// and best[i] = the argmin. ||x_i||^2 is constant per row, so it drops
  /// out of the fused ||x||^2 + ||c||^2 - 2 x.c argmin; the n x k product
  /// never materializes — only mr x nr register tiles live at once.
  ///
  /// Callers initialize best[i] = 0, score[i] = +inf once per row and may
  /// split [0, row_panels) into any ascending sequence of [p0, p1) sweeps:
  /// each (i, j) dot accumulates strictly sequentially over the depth (one
  /// panel lane per centroid, ascending col-panels), and the epilogue
  /// compares lanes in ascending j with strict '<', so the result is
  /// bitwise invariant across mrows grouping, panel-range cuts and the
  /// pack's col_block — the tile-shape determinism contract.
  void (*gemm_argmin)(const value_t* a, index_t mrows, index_t lda,
                      const TiledMatrix& b, index_t p0, index_t p1,
                      const value_t* cnorm, cluster_t* best,
                      value_t* score) = nullptr;
};

/// True when `isa` is both compiled into this binary and supported by the
/// CPU we are running on. kScalar is always available; kAuto is not a
/// dispatchable entry.
bool available(Isa isa);

/// Highest available ISA on this machine (the kAuto default).
Isa detect_best();

/// Every available ISA, lowest (scalar) first. For tests and benches.
std::vector<Isa> available_isas();

/// Process-wide override, plumbed from Options::simd at every engine entry
/// point. kAuto clears the override (env/CPUID decide again). Unavailable
/// requests clamp downward at resolve time rather than failing, so a flag
/// like --simd avx512 degrades gracefully on older hardware.
void set_isa(Isa isa);

/// Resolves a request to a dispatchable ISA: kAuto consults the override,
/// then KNOR_SIMD (read once per process), then detect_best(); anything
/// unavailable clamps down the avx512 -> avx2 -> sse2 -> scalar chain.
Isa resolve(Isa requested);

/// The active ISA's kernel table (resolve(kAuto)). Hoist the reference out
/// of hot loops: `const kernels::Ops& K = kernels::ops();`.
const Ops& ops();

/// A specific ISA's table (after resolve-clamping). For tests/benches.
const Ops& ops_for(Isa isa);

}  // namespace knor::kernels
