/**
 * @file
 * Statistics helper implementations.
 */

#include "stats.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "logging.hh"

namespace supernpu {

namespace {

/**
 * One warning per process for non-finite samples: they always mean
 * an upstream bug, but benches feed millions of samples through
 * these accumulators and a per-sample warn would bury the signal.
 */
void
warnNonFiniteOnce(const char *where)
{
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
        warn(where, ": non-finite sample excluded from statistics "
             "(further occurrences counted silently)");
    }
}

/** Bit pattern of a double; ordered like the value when positive. */
std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

} // namespace

void
RunningStats::add(double sample)
{
    if (!std::isfinite(sample)) {
        ++_nonFiniteCount;
        warnNonFiniteOnce("RunningStats::add");
        return;
    }
    if (_count == 0) {
        _min = sample;
        _max = sample;
    } else {
        _min = std::min(_min, sample);
        _max = std::max(_max, sample);
    }
    ++_count;
    _sum += sample;
    if (sample > 0.0) {
        ++_positiveCount;
        _logSum += std::log(sample);
    }
}

double
RunningStats::mean() const
{
    return _count ? _sum / (double)_count : 0.0;
}

double
RunningStats::geomean() const
{
    return _positiveCount ? std::exp(_logSum / (double)_positiveCount) : 0.0;
}

double
mean(const std::vector<double> &samples)
{
    RunningStats stats;
    for (double s : samples)
        stats.add(s);
    return stats.mean();
}

double
geomean(const std::vector<double> &samples)
{
    RunningStats stats;
    for (double s : samples)
        stats.add(s);
    return stats.geomean();
}

double
percentile(std::vector<double> samples, double p)
{
    const auto finite_end = std::remove_if(
        samples.begin(), samples.end(),
        [](double s) { return !std::isfinite(s); });
    if (finite_end != samples.end()) {
        warnNonFiniteOnce("percentile");
        samples.erase(finite_end, samples.end());
    }
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    p = std::min(std::max(p, 0.0), 100.0);
    const double rank = p / 100.0 * (double)(samples.size() - 1);
    const std::size_t below = (std::size_t)rank;
    if (below + 1 >= samples.size())
        return samples.back();
    const double frac = rank - (double)below;
    return samples[below] * (1.0 - frac) + samples[below + 1] * frac;
}

Histogram::Histogram(double lo, double hi, int bins_per_decade)
    : _lo(lo), _hi(hi), _logLo(std::log10(lo)),
      _binsPerDecade((double)bins_per_decade)
{
    SUPERNPU_ASSERT(lo > 0.0 && hi > lo && std::isfinite(hi) &&
                        bins_per_decade > 0,
                    "bad histogram shape");
    const std::size_t regular = (std::size_t)std::ceil(
        (std::log10(hi) - _logLo) * _binsPerDecade);
    _bins.assign(regular + 2, 0); // + underflow and overflow

    // Regular bin r starts at the least double the formula puts in
    // it. 10^(logLo + r/bpd) lands within a few ulps of that edge;
    // step down out of the bin, then up to its first double.
    constexpr int kMaxSteps = 64;
    _edges.assign(regular, lo);
    SUPERNPU_ASSERT(formulaBin(lo) == 0, "histogram lo outside bin 0");
    for (std::size_t r = 1; r < regular; ++r) {
        double edge = std::pow(10.0, _logLo + (double)r / _binsPerDecade);
        int steps = 0;
        while (formulaBin(edge) >= r) {
            edge = std::nextafter(edge, 0.0);
            SUPERNPU_ASSERT(++steps <= kMaxSteps, "histogram edge search");
        }
        while (formulaBin(edge) < r) {
            edge = std::nextafter(edge, hi);
            SUPERNPU_ASSERT(++steps <= kMaxSteps, "histogram edge search");
        }
        const double below = std::nextafter(edge, 0.0);
        SUPERNPU_ASSERT(formulaBin(edge) == r &&
                            formulaBin(below) == r - 1 &&
                            edge > _edges[r - 1] && edge < hi,
                        "histogram bin ", r, " has no exact edge");
        _edges[r] = edge;
    }

    // Buckets of top bits no wider than the closest pair of edges
    // hold at most one edge each, so a lookup starts at its bucket's
    // first bin and advances at most once.
    std::uint64_t min_gap = bitsOf(hi) - bitsOf(lo);
    for (std::size_t r = 1; r < regular; ++r) {
        min_gap = std::min(min_gap,
                           bitsOf(_edges[r]) - bitsOf(_edges[r - 1]));
    }
    _bucketShift = 63 - std::countl_zero(min_gap);
    _bucketBase = bitsOf(lo) >> _bucketShift;
    const std::uint64_t last =
        bitsOf(std::nextafter(hi, 0.0)) >> _bucketShift;
    _bucketBin.resize((std::size_t)(last - _bucketBase + 1));
    std::size_t bin = 0;
    for (std::size_t b = 0; b < _bucketBin.size(); ++b) {
        const double first = std::max(
            lo, std::bit_cast<double>((_bucketBase + b) << _bucketShift));
        while (bin + 1 < regular && first >= _edges[bin + 1])
            ++bin;
        _bucketBin[b] = (std::uint32_t)bin;
    }
}

std::size_t
Histogram::formulaBin(double x) const
{
    return (std::size_t)((std::log10(x) - _logLo) * _binsPerDecade);
}

std::size_t
Histogram::binIndex(double sample) const
{
    if (!(sample >= _lo)) // includes non-positive samples and NaN
        return 0;
    if (sample >= _hi)
        return _bins.size() - 1;
    std::size_t bin =
        _bucketBin[(bitsOf(sample) >> _bucketShift) - _bucketBase];
    while (bin + 1 < _edges.size() && sample >= _edges[bin + 1])
        ++bin;
    return 1 + bin;
}

void
Histogram::add(double sample)
{
    if (!std::isfinite(sample)) {
        ++_nonFiniteCount;
        warnNonFiniteOnce("Histogram::add");
        return;
    }
    if (_count == 0) {
        _min = sample;
        _max = sample;
    } else {
        _min = std::min(_min, sample);
        _max = std::max(_max, sample);
    }
    ++_count;
    _sum += sample;
    ++_bins[binIndex(sample)];
}

double
Histogram::percentile(double p) const
{
    if (count() == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Nearest-rank over the bin counts.
    const std::uint64_t target = std::max<std::uint64_t>(
        1, (std::uint64_t)std::ceil(p / 100.0 * (double)count()));
    std::uint64_t seen = 0;
    std::size_t index = _bins.size() - 1;
    for (std::size_t i = 0; i < _bins.size(); ++i) {
        seen += _bins[i];
        if (seen >= target) {
            index = i;
            break;
        }
    }
    double value;
    if (index == 0) {
        value = min();
    } else if (index == _bins.size() - 1) {
        value = max();
    } else {
        // Geometric midpoint of the bin's edges.
        const double lo_edge = std::pow(
            10.0, _logLo + (double)(index - 1) / _binsPerDecade);
        const double hi_edge = std::pow(
            10.0, _logLo + (double)index / _binsPerDecade);
        value = std::sqrt(lo_edge * hi_edge);
    }
    return std::min(std::max(value, min()), max());
}

} // namespace supernpu
