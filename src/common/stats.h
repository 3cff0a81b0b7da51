/**
 * @file
 * Lightweight statistics containers used by telemetry and benches.
 */

#ifndef C4_COMMON_STATS_H
#define C4_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace c4 {

/**
 * Accumulates samples and answers summary queries (mean, stddev, min, max,
 * percentiles). Samples are retained so percentiles are exact; the volumes
 * involved in our experiments (<= millions of samples) make this cheap.
 *
 * Empty-input contract: every query (mean, stddev, min, max, percentile,
 * median, cv) answers the sentinel 0.0 on an empty summary. That value is
 * indistinguishable from a real zero, so callers that care must check
 * empty() first or use percentileOr() with an explicit fallback.
 */
class Summary
{
  public:
    void add(double v);

    /** Merge another summary's samples into this one. */
    void merge(const Summary &other);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double sum() const { return sum_; }
    double mean() const;
    /** Sample standard deviation (n-1 denominator); 0 for n < 2. */
    double stddev() const;
    double min() const;
    double max() const;

    /**
     * Exact percentile via nearest-rank interpolation.
     * @param p percentile, clamped to [0, 100]; 0.0 when empty.
     */
    double percentile(double p) const;

    /** Like percentile(), but answers @p fallback when empty. */
    double percentileOr(double p, double fallback) const;

    double median() const { return percentile(50.0); }

    /** Coefficient of variation (stddev / mean); 0 when mean is 0. */
    double cv() const;

    const std::vector<double> &samples() const { return samples_; }

    void clear();

    /** One-line human-readable rendering. */
    std::string str() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;

    void ensureSorted() const;
};

/**
 * Fixed-width histogram over [lo, hi) with underflow/overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double v);

    bool empty() const { return total_ == 0; }
    std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    double bucketLo(std::size_t i) const;
    double bucketHi(std::size_t i) const;

    /** Multi-line ASCII rendering with proportional bars. */
    std::string str(std::size_t bar_width = 40) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Bounded-memory sliding-window quantile estimator. Keeps only the most
 * recent @c capacity samples in a ring buffer, so memory never grows with
 * the stream length — unlike Summary, which retains every sample and
 * cannot survive a soak. Percentiles are exact over the current window
 * (sort of a scratch copy per query), which is designed for
 * snapshot-cadence reads, not per-sample reads.
 *
 * Empty-window contract: min(), max(), and percentile() answer the
 * sentinel 0.0 when the window is empty; use empty() or percentileOr()
 * when 0.0 is a legal sample value.
 */
class WindowedQuantile
{
  public:
    explicit WindowedQuantile(std::size_t capacity = 512);

    void add(double v);

    /** Samples ever observed (not just those still in the window). */
    std::uint64_t count() const { return count_; }
    /** Samples currently held in the window. */
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    bool empty() const { return size_ == 0; }

    /** Smallest sample in the window; 0.0 when empty. */
    double min() const;
    /** Largest sample in the window; 0.0 when empty. */
    double max() const;

    /**
     * Exact percentile over the window via nearest-rank interpolation.
     * @param p percentile, clamped to [0, 100]; 0.0 when empty.
     */
    double percentile(double p) const;

    /** Like percentile(), but answers @p fallback when empty. */
    double percentileOr(double p, double fallback) const;

    void clear();

  private:
    std::vector<double> ring_;
    std::size_t head_ = 0; ///< next write position
    std::size_t size_ = 0;
    std::uint64_t count_ = 0;
    mutable std::vector<double> scratch_;

    /** Sorted copy of the live window contents. */
    const std::vector<double> &sortedWindow() const;
};

/**
 * Exponentially-weighted moving average, used by the dynamic load balancer
 * to track per-path message completion times.
 */
class Ewma
{
  public:
    /** @param alpha weight of the newest sample, in (0, 1]. */
    explicit Ewma(double alpha = 0.2);

    void add(double v);

    bool empty() const { return count_ == 0; }
    double value() const { return value_; }
    std::uint64_t count() const { return count_; }

    void reset();

  private:
    double alpha_;
    double value_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace c4

#endif // C4_COMMON_STATS_H
