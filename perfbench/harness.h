/**
 * @file
 * Harness pieces shared by every perfbench workload: sample summaries
 * (median and nearest-rank percentiles with their sample counts),
 * due-time latency accounting for open-loop phases, the in-memory span
 * tracer with self-time computation and Chrome trace export, and the
 * metric report that ends every run with one JSON line.
 *
 * Nothing here reaches inside src/: spans are recorded around calls
 * into the library's public functions, from the benchmark's own code.
 */
#ifndef NUMAWS_PERFBENCH_HARNESS_H
#define NUMAWS_PERFBENCH_HARNESS_H

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Sample summaries
// ---------------------------------------------------------------------

/** Median of @p v (mean of the middle pair when the count is even);
 * 0 for an empty set. */
double median(std::vector<double> v);

/** Nearest-rank quantile: the smallest sample with at least q*n samples
 * at or below it. 0 for an empty set. */
double quantile(std::vector<double> v, double q);

/** Samples strictly above the nearest-rank @p q quantile of @p n
 * samples: a percentile is trusted only when this is at least 10. */
int64_t samplesBeyond(int64_t n, double q);

/** The tail quantile reported for @p n samples: 0.99 when at least ten
 * samples lie beyond it, else the highest quantile that keeps ten beyond
 * (the median when there are too few samples for that). */
double tailQuantile(int64_t n);

/**
 * A summarised timing: median, tail and how many samples gave them. The
 * tail is taken per window of consecutive samples (one window per 1000
 * samples, at most 20) and the median window tail is reported, so one
 * burst of host interference moves one window, not the run's figure.
 */
struct Summary
{
    double p50 = 0.0;
    double p99 = 0.0; ///< median over windows of the tailQ quantile
    double tailQ = 0.99;
    int windows = 1;
    int64_t n = 0;

    /** Note for a report line: which quantile p99 holds when not 0.99. */
    std::string tailNote() const;
};

Summary summarize(const std::vector<double> &v);

// ---------------------------------------------------------------------
// Open-loop latency accounting
// ---------------------------------------------------------------------

/**
 * Latency of open-loop operations, each timed from the instant it was
 * *due* rather than when the generator got round to issuing it, so a
 * stall that delays later requests is charged to them too. A failed
 * operation counts as missing every latency limit: it is recorded as
 * +infinity and sorts above every real sample.
 */
class DueLatency
{
  public:
    /** @param due_ns when the op should have been issued; @param
     * issued_ns when it was; @param done_ns when it completed. */
    void record(int64_t due_ns, int64_t issued_ns, int64_t done_ns,
                bool ok);

    /** Latencies in microseconds (failed ops as +inf). */
    const std::vector<double> &latencyUs() const { return _latUs; }
    /** How late the generator issued each op, microseconds. */
    const std::vector<double> &lateUs() const { return _lateUs; }
    int64_t attempted() const { return static_cast<int64_t>(_latUs.size()); }
    int64_t failed() const { return _failed; }

  private:
    std::vector<double> _latUs;
    std::vector<double> _lateUs;
    int64_t _failed = 0;
};

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

/** One timed call into a layer. Parents are spans of the same thread. */
struct Span
{
    const char *layer = "";
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< index in the same thread's buffer, -1 = root
    uint64_t group = 0;  ///< shared id of the job or rep the span serves
    uint64_t ops = 1;    ///< operations a micro-loop span covers
};

/** Per-span self time: duration minus the part of the span's interval
 * that its children cover (overlapping children counted once). */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Process-wide span store. Each thread appends to its own buffer (no
 * locking on the record path); buffers are registered once under a
 * mutex and read only after every worker thread has been joined.
 */
class Tracer
{
  public:
    static void enable(bool on);
    static bool enabled();

    /** Open a span on the calling thread; returns its index. */
    static int32_t open(const char *layer, const char *name,
                        uint64_t group, uint64_t ops);
    static void close(int32_t index);

    struct ThreadSpans
    {
        uint32_t tid = 0;
        std::vector<Span> spans;
        std::vector<int32_t> stack;
        uint64_t dropped = 0;
    };

    /** Snapshot of every thread's spans (call once workers are gone). */
    static std::vector<const ThreadSpans *> threads();
    static void clear();

    /** Total self time per layer, milliseconds. */
    static std::map<std::string, double> selfMsByLayer();
    static uint64_t spanCount();
    static uint64_t droppedCount();
    /** Write spans as Chrome trace-event JSON (opens in Perfetto);
     * at most @p max_events events. @return false on an I/O error. */
    static bool writeChromeTrace(const std::string &path,
                                 std::size_t max_events);
};

/** RAII span; free when tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *layer, const char *name, uint64_t group = 0,
               uint64_t ops = 1)
        : _index(Tracer::enabled() ? Tracer::open(layer, name, group, ops)
                                   : -1)
    {}
    ~ScopedSpan()
    {
        if (_index >= 0)
            Tracer::close(_index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int32_t _index;
};

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
    int64_t samples = 0; ///< 0 = not a sampled statistic
    std::string note;
};

/**
 * Everything a run prints. The human-readable table goes first; the
 * last stdout line is one JSON object with correct/attempted/failed and
 * every metric, which perfbench/run.py filters to the names listed in
 * BENCHMARK.json.
 */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit,
             int64_t samples = 0, const std::string &note = "");
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    void stamp(const std::string &key, const std::string &value);
    /** Count an attempted op, and whether its output checked out. */
    void op(bool ok, const char *what = nullptr);
    void ops(int64_t attempted, int64_t failed, const char *what = nullptr);
    int64_t attempted() const { return _attempted; }
    int64_t failed() const { return _failed; }

    void printTable(std::FILE *out) const;
    void printJson(std::FILE *out) const;

  private:
    std::map<std::string, Metric> _metrics;
    std::vector<std::pair<std::string, std::string>> _stamps;
    int64_t _attempted = 0;
    int64_t _failed = 0;
};

} // namespace perfbench

#endif // NUMAWS_PERFBENCH_HARNESS_H
