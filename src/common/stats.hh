/**
 * @file
 * Small statistics helpers shared by the simulators and benches.
 */

#ifndef SUPERNPU_COMMON_STATS_HH
#define SUPERNPU_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace supernpu {

/**
 * Streaming accumulator for min / max / mean / geometric mean.
 * Geometric mean silently skips non-positive samples (they have no
 * geomean) but still counts them toward the arithmetic statistics.
 *
 * Non-finite samples (NaN, +/-inf) are excluded from every moment:
 * a NaN would otherwise stick in min/max forever (NaN propagates
 * through std::min/std::max once it gets in first) and poison the
 * sum. They are tallied in nonFiniteCount() and warned about once
 * per process, because a non-finite metric is always an upstream
 * bug worth surfacing without corrupting every later readout.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double sample);

    /** Number of finite samples added. */
    std::size_t count() const { return _count; }
    /** Smallest sample; 0 when empty. */
    double min() const { return _count ? _min : 0.0; }
    /** Largest sample; 0 when empty. */
    double max() const { return _count ? _max : 0.0; }
    /** Arithmetic mean; 0 when empty. */
    double mean() const;
    /** Geometric mean over the positive samples; 0 when none. */
    double geomean() const;
    /** Sum of all finite samples. */
    double sum() const { return _sum; }
    /** NaN / infinite samples rejected by add(). */
    std::size_t nonFiniteCount() const { return _nonFiniteCount; }

  private:
    std::size_t _count = 0;
    std::size_t _positiveCount = 0;
    std::size_t _nonFiniteCount = 0;
    double _sum = 0.0;
    double _logSum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/** Arithmetic mean of a vector; 0 when empty. */
double mean(const std::vector<double> &samples);

/** Geometric mean of the positive entries of a vector; 0 when none. */
double geomean(const std::vector<double> &samples);

/**
 * Exact percentile of a sample set (linear interpolation between
 * closest ranks); 0 when empty. `p` is in [0, 100]. Takes a copy
 * because it must sort. Non-finite samples are dropped (with a
 * once-per-process warn) before sorting — NaN gives std::sort an
 * invalid strict weak order, so its presence would otherwise make
 * the selected rank, and even memory safety, unspecified.
 */
double percentile(std::vector<double> samples, double p);

/**
 * Streaming percentile estimator over logarithmically spaced bins
 * (an HdrHistogram-style sketch): O(1) insert, O(bins) quantile
 * query, fixed memory. Relative error per quantile is bounded by the
 * bin ratio, 10^(1/binsPerDecade) (~1.9% at the default 53 bins per
 * decade). Samples below `lo` or at/above `hi` land in saturating
 * under/overflow bins whose quantiles report the exact observed
 * min/max. Non-positive samples count toward `count()` and the
 * moment statistics but live in the underflow bin. Non-finite
 * samples are excluded entirely — a NaN would land in the underflow
 * bin via `!(sample >= lo)` and silently drag every low quantile
 * toward min() — and are tallied in nonFiniteCount() instead.
 *
 * A sample x in [lo, hi) belongs to regular bin
 * `min((size_t)((log10(x) - log10(lo)) * binsPerDecade), last)`.
 * add() evaluates that formula without a log10: the constructor
 * finds each bin's exact lower edge (the least double the formula
 * puts in the bin) and a table indexed by the sample's top bits
 * that names the bin of each bucket's first double; a lookup then
 * walks at most one edge forward.
 */
class Histogram
{
  public:
    /**
     * @param lo  lower edge of the first regular bin (> 0)
     * @param hi  upper edge of the last regular bin (> lo)
     * @param bins_per_decade  log-resolution of the sketch
     */
    explicit Histogram(double lo = 1e-9, double hi = 1e4,
                       int bins_per_decade = 53);

    /** Add one sample. */
    void add(double sample);

    /** Number of finite samples added. */
    std::size_t count() const { return _count; }
    /** Smallest sample; 0 when empty. */
    double min() const { return _count ? _min : 0.0; }
    /** Largest sample; 0 when empty. */
    double max() const { return _count ? _max : 0.0; }
    /** Arithmetic mean; 0 when empty. */
    double mean() const { return _count ? _sum / (double)_count : 0.0; }
    /** Sum of all finite samples. */
    double sum() const { return _sum; }

    /**
     * Estimated value at percentile `p` in [0, 100]; 0 when empty.
     * Returns the geometric midpoint of the bin holding the rank,
     * clamped to the exact observed [min, max].
     */
    double percentile(double p) const;

    /** NaN / infinite samples rejected by add(). */
    std::size_t nonFiniteCount() const { return _nonFiniteCount; }

    /**
     * Bin a sample would land in: 0 is the underflow bin (below
     * `lo`, non-positive or NaN), the last the overflow bin (at or
     * above `hi`, +inf), 1 + the formula's regular bin between.
     */
    std::size_t binIndex(double sample) const;

  private:
    /** The binning formula's regular bin of x in [lo, hi). */
    std::size_t formulaBin(double x) const;

    double _lo;
    double _hi;
    double _logLo;
    double _binsPerDecade;
    std::vector<std::uint64_t> _bins; ///< [underflow, ..., overflow]

    /** Least double in each regular bin; _edges[0] == lo. */
    std::vector<double> _edges;
    /** Per bucket of top bits, the regular bin of its first double. */
    std::vector<std::uint32_t> _bucketBin;
    int _bucketShift = 0;           ///< bucket = bits >> shift
    std::uint64_t _bucketBase = 0;  ///< bucket of lo

    std::size_t _count = 0;
    std::size_t _nonFiniteCount = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

} // namespace supernpu

#endif // SUPERNPU_COMMON_STATS_HH
