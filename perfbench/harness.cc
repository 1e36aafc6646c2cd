#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "support/timing.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Sample summaries
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t
nearestRankIndex(std::size_t n, double q)
{
    const double rank = std::ceil(q * static_cast<double>(n));
    const auto r = static_cast<std::size_t>(std::max(1.0, rank));
    return std::min(r, n) - 1;
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t i = nearestRankIndex(v.size(), q);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                     v.end());
    return v[i];
}

int64_t
samplesBeyond(int64_t n, double q)
{
    if (n <= 0)
        return 0;
    return n - 1
           - static_cast<int64_t>(
               nearestRankIndex(static_cast<std::size_t>(n), q));
}

double
tailQuantile(int64_t n)
{
    if (samplesBeyond(n, 0.99) >= 10)
        return 0.99;
    const double count = static_cast<double>(std::max<int64_t>(n, 1));
    return std::max(0.5, 1.0 - 10.0 / count);
}

std::string
Summary::tailNote() const
{
    char buf[96];
    if (tailQ == 0.99)
        std::snprintf(buf, sizeof buf, "median p99 of %d windows", windows);
    else
        std::snprintf(buf, sizeof buf, "p%.2f (fewer than 1000 samples)",
                      tailQ * 100.0);
    return buf;
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = static_cast<int64_t>(v.size());
    s.p50 = median(v);
    s.windows = static_cast<int>(std::clamp<int64_t>(s.n / 1000, 1, 20));
    const std::size_t per = v.size() / static_cast<std::size_t>(s.windows);
    s.tailQ = tailQuantile(static_cast<int64_t>(per));
    std::vector<double> tails;
    for (int w = 0; w < s.windows; ++w) {
        const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * per);
        const auto end = w + 1 == s.windows
                             ? v.end()
                             : begin + static_cast<std::ptrdiff_t>(per);
        tails.push_back(quantile(std::vector<double>(begin, end), s.tailQ));
    }
    s.p99 = median(tails);
    return s;
}

// ---------------------------------------------------------------------
// Open-loop latency accounting
// ---------------------------------------------------------------------

void
DueLatency::record(int64_t due_ns, int64_t issued_ns, int64_t done_ns,
                   bool ok)
{
    _lateUs.push_back(
        static_cast<double>(std::max<int64_t>(0, issued_ns - due_ns)) * 1e-3);
    if (!ok) {
        ++_failed;
        _latUs.push_back(std::numeric_limits<double>::infinity());
        return;
    }
    _latUs.push_back(static_cast<double>(done_ns - due_ns) * 1e-3);
}

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const int64_t a = std::max(s.startNs, p.startNs);
        const int64_t b = std::min(s.endNs, p.endNs);
        if (b > a)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
    std::vector<int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = (spans[i].endNs - spans[i].startNs) - covered;
    }
    return self;
}

namespace {

constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

std::atomic<bool> g_enabled{false};
std::mutex g_registryLock;
std::vector<std::unique_ptr<Tracer::ThreadSpans>> g_registry; // guarded

Tracer::ThreadSpans &
threadBuffer()
{
    thread_local Tracer::ThreadSpans *buf = nullptr;
    if (buf == nullptr) {
        std::lock_guard<std::mutex> g(g_registryLock);
        g_registry.push_back(std::make_unique<Tracer::ThreadSpans>());
        buf = g_registry.back().get();
        buf->tid = static_cast<uint32_t>(g_registry.size());
        buf->spans.reserve(4096);
    }
    return *buf;
}

} // namespace

void
Tracer::enable(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

int32_t
Tracer::open(const char *layer, const char *name, uint64_t group,
             uint64_t ops)
{
    ThreadSpans &t = threadBuffer();
    if (t.spans.size() >= kMaxSpansPerThread) {
        ++t.dropped;
        return -1;
    }
    Span s;
    s.layer = layer;
    s.name = name;
    s.group = group;
    s.ops = ops;
    s.parent = t.stack.empty() ? -1 : t.stack.back();
    s.startNs = numaws::nowNs();
    t.spans.push_back(s);
    const auto index = static_cast<int32_t>(t.spans.size() - 1);
    t.stack.push_back(index);
    return index;
}

void
Tracer::close(int32_t index)
{
    ThreadSpans &t = threadBuffer();
    t.spans[static_cast<std::size_t>(index)].endNs = numaws::nowNs();
    if (!t.stack.empty() && t.stack.back() == index)
        t.stack.pop_back();
}

std::vector<const Tracer::ThreadSpans *>
Tracer::threads()
{
    std::lock_guard<std::mutex> g(g_registryLock);
    std::vector<const ThreadSpans *> out;
    for (const auto &b : g_registry)
        out.push_back(b.get());
    return out;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> g(g_registryLock);
    for (auto &b : g_registry) {
        b->spans.clear();
        b->stack.clear();
        b->dropped = 0;
    }
}

std::map<std::string, double>
Tracer::selfMsByLayer()
{
    std::map<std::string, double> out;
    for (const ThreadSpans *t : threads()) {
        const std::vector<int64_t> self = selfTimes(t->spans);
        for (std::size_t i = 0; i < self.size(); ++i)
            out[t->spans[i].layer] += static_cast<double>(self[i]) * 1e-6;
    }
    return out;
}

uint64_t
Tracer::spanCount()
{
    uint64_t n = 0;
    for (const ThreadSpans *t : threads())
        n += t->spans.size();
    return n;
}

uint64_t
Tracer::droppedCount()
{
    uint64_t n = 0;
    for (const ThreadSpans *t : threads())
        n += t->dropped;
    return n;
}

bool
Tracer::writeChromeTrace(const std::string &path, std::size_t max_events)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    int64_t t0 = std::numeric_limits<int64_t>::max();
    for (const ThreadSpans *t : threads())
        for (const Span &s : t->spans)
            t0 = std::min(t0, s.startNs);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    std::size_t written = 0;
    for (const ThreadSpans *t : threads()) {
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            if (written == max_events)
                break;
            const Span &s = t->spans[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"span\":%zu,\"parent\":%d,"
                         "\"id\":%llu,\"ops\":%llu}}\n",
                         written == 0 ? "" : ",", s.name, s.layer, t->tid,
                         static_cast<double>(s.startNs - t0) * 1e-3,
                         static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                         s.parent, static_cast<unsigned long long>(s.group),
                         static_cast<unsigned long long>(s.ops));
            ++written;
        }
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit,
            int64_t samples, const std::string &note)
{
    _metrics[name] = Metric{value, unit, samples, note};
}

bool
Report::has(const std::string &name) const
{
    return _metrics.count(name) != 0;
}

double
Report::get(const std::string &name) const
{
    const auto it = _metrics.find(name);
    return it == _metrics.end() ? 0.0 : it->second.value;
}

void
Report::stamp(const std::string &key, const std::string &value)
{
    _stamps.emplace_back(key, value);
}

void
Report::op(bool ok, const char *what)
{
    ops(1, ok ? 0 : 1, what);
}

void
Report::ops(int64_t attempted, int64_t failed, const char *what)
{
    _attempted += attempted;
    _failed += failed;
    if (failed > 0)
        std::fprintf(stderr, "perfbench: output check failed: %s (%lld of "
                             "%lld)\n",
                     what != nullptr ? what : "?",
                     static_cast<long long>(failed),
                     static_cast<long long>(attempted));
}

void
Report::printTable(std::FILE *out) const
{
    for (const auto &[k, v] : _stamps)
        std::fprintf(out, "# %s: %s\n", k.c_str(), v.c_str());
    std::fprintf(out, "%-36s %16s  %-8s %9s  %s\n", "metric", "value", "unit",
                 "samples", "note");
    for (const auto &[name, m] : _metrics) {
        std::fprintf(out, "%-36s %16.6g  %-8s %9lld  %s\n", name.c_str(),
                     m.value, m.unit.c_str(),
                     static_cast<long long>(m.samples), m.note.c_str());
    }
    std::fprintf(out, "%-36s %16.6g  %-8s %9lld\n", "fail_frac",
                 _attempted > 0 ? static_cast<double>(_failed)
                                      / static_cast<double>(_attempted)
                                : 0.0,
                 "ratio", static_cast<long long>(_attempted));
}

void
Report::printJson(std::FILE *out) const
{
    std::fprintf(out, "{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                      "%lld, \"stamps\": {",
                 _failed == 0 ? "true" : "false",
                 static_cast<long long>(_attempted),
                 static_cast<long long>(_failed));
    bool first = true;
    for (const auto &[k, v] : _stamps) {
        std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                     v.c_str());
        first = false;
    }
    std::fputs("}, \"metrics\": {", out);
    first = true;
    for (const auto &[name, m] : _metrics) {
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                          "\"samples\": %lld}",
                     first ? "" : ", ", name.c_str(), v, m.unit.c_str(),
                     static_cast<long long>(m.samples));
        first = false;
    }
    std::fputs("}}\n", out);
}

} // namespace perfbench
