/**
 * @file
 * Tests of the benchmark's own helpers: median and nearest-rank
 * percentiles with their sample counts, the windowed tail, due-time
 * latency accounting, and span self-time computation. Exits non-zero on
 * the first failed check; perfbench/smoke.py runs it.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
        ++g_failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void
testMedianAndQuantile()
{
    CHECK(median({}) == 0.0);
    CHECK(median({3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0}) == 3.0);
    CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));

    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    // Nearest rank: the smallest sample with at least q*n at or below.
    CHECK(quantile(v, 0.99) == 99.0);
    CHECK(quantile(v, 0.5) == 50.0);
    CHECK(quantile(v, 1.0) == 100.0);
    CHECK(quantile(v, 0.0) == 1.0);
    CHECK(samplesBeyond(100, 0.99) == 1);
    CHECK(samplesBeyond(1000, 0.99) == 10);
    CHECK(samplesBeyond(999, 0.99) == 9);
    CHECK(samplesBeyond(0, 0.99) == 0);
}

void
testTailQuantile()
{
    // p99 needs ten samples beyond it: 1000 samples.
    CHECK(tailQuantile(1000) == 0.99);
    CHECK(tailQuantile(5000) == 0.99);
    // Fewer: the highest quantile that keeps ten beyond.
    CHECK(near(tailQuantile(100), 0.9));
    CHECK(samplesBeyond(100, tailQuantile(100)) == 10);
    CHECK(samplesBeyond(40, tailQuantile(40)) == 10);
    // Too few for that: the median.
    CHECK(tailQuantile(12) == 0.5);
    CHECK(tailQuantile(0) == 0.5);
}

void
testSummarizeWindows()
{
    // 4000 samples = 4 windows; one window holds a burst of slow
    // samples. The median window tail ignores it; the sample count and
    // median are over everything.
    std::vector<double> v;
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 1000; ++i)
            v.push_back(w == 2 ? 1000.0 + i : static_cast<double>(i % 100));
    const Summary s = summarize(v);
    CHECK(s.n == 4000);
    CHECK(s.windows == 4);
    CHECK(s.tailQ == 0.99);
    CHECK(s.p99 == 98.0);
    CHECK(near(s.p50, median(v)));

    // Under 1000 samples: one window at the lower tail quantile.
    const Summary few = summarize(std::vector<double>(50, 7.0));
    CHECK(few.windows == 1);
    CHECK(near(few.tailQ, 0.8));
    CHECK(few.p99 == 7.0);
    CHECK(few.tailNote() != "");
}

void
testDueLatency()
{
    DueLatency d;
    // On time: latency is done - due.
    d.record(1000, 1000, 6000, true);
    // The generator ran 2 us late: the lateness counts in the latency.
    d.record(2000, 4000, 9000, true);
    // Issued before due (never happens, but lateness clamps at 0).
    d.record(5000, 4500, 7000, true);
    // A failed op misses every limit.
    d.record(3000, 3000, 3500, false);
    CHECK(d.attempted() == 4);
    CHECK(d.failed() == 1);
    CHECK(near(d.latencyUs()[0], 5.0));
    CHECK(near(d.latencyUs()[1], 7.0));
    CHECK(near(d.lateUs()[1], 2.0));
    CHECK(d.lateUs()[2] == 0.0);
    CHECK(std::isinf(d.latencyUs()[3]));
    // The failure sorts above every real sample.
    CHECK(std::isinf(quantile(d.latencyUs(), 1.0)));
    CHECK(near(quantile(d.latencyUs(), 0.75), 7.0));
}

Span
span(int64_t start, int64_t end, int32_t parent)
{
    Span s;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

void
testSelfTimes()
{
    // root [0,100) with children [10,30) and [20,50) (overlapping: they
    // cover [10,50) once) and [60,70); grandchild [12,18) of child 1.
    const std::vector<Span> spans = {
        span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
        span(60, 70, 0),  span(12, 18, 1),
    };
    const std::vector<int64_t> self = selfTimes(spans);
    CHECK(self[0] == 100 - 40 - 10);
    CHECK(self[1] == 20 - 6);
    CHECK(self[2] == 30);
    CHECK(self[3] == 10);
    CHECK(self[4] == 6);

    // A child that outlives its parent is clipped to the parent.
    const std::vector<Span> clipped = {span(0, 10, -1), span(5, 20, 0)};
    const std::vector<int64_t> s2 = selfTimes(clipped);
    CHECK(s2[0] == 5);
    CHECK(s2[1] == 15);
}

void
testTracerNesting()
{
    Tracer::clear();
    Tracer::enable(true);
    {
        ScopedSpan outer("runtime", "outer");
        {
            ScopedSpan inner("mem", "inner", 7, 3);
        }
    }
    Tracer::enable(false);
    {
        ScopedSpan off("runtime", "not recorded");
    }
    CHECK(Tracer::spanCount() == 2);
    const auto layers = Tracer::selfMsByLayer();
    CHECK(layers.count("runtime") == 1 && layers.count("mem") == 1);
    for (const Tracer::ThreadSpans *t : Tracer::threads()) {
        if (t->spans.size() != 2)
            continue;
        CHECK(t->spans[0].parent == -1);
        CHECK(t->spans[1].parent == 0);
        CHECK(t->spans[1].group == 7);
        CHECK(t->spans[1].ops == 3);
    }
    Tracer::clear();
}

void
testReport()
{
    Report r;
    r.set("tp_s", 0.5, "s", 10);
    r.op(true);
    r.ops(4, 1, "selftest (expected failure)");
    CHECK(r.has("tp_s") && !r.has("ts_s"));
    CHECK(r.get("tp_s") == 0.5);
    CHECK(r.attempted() == 5);
    CHECK(r.failed() == 1);
}

} // namespace

int
main()
{
    testMedianAndQuantile();
    testTailQuantile();
    testSummarizeWindows();
    testDueLatency();
    testSelfTimes();
    testTracerNesting();
    testReport();
    if (g_failures != 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
