/**
 * @file
 * fj-fine: fib with a fine cutoff, run as serial elision, on one worker
 * and on P workers. Spawn/sync and the steal/wake path are nearly all of
 * the cost, so T1/TS is the work-first yardstick and the tail of the
 * P-worker reps shows steal stalls.
 */
#include "bench.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

using numaws::nowNs;
using numaws::Runtime;
using numaws::TaskGroup;

uint64_t
fibTask(int n)
{
    if (n < kFibCutoff)
        return numaws::workloads::fibSerial(n);
    uint64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n] { a = fibTask(n - 1); });
    const uint64_t b = fibTask(n - 2);
    tg.sync();
    return a + b;
}

uint64_t
fibExact(int n)
{
    uint64_t a = 0, b = 1;
    for (int i = 0; i < n; ++i) {
        const uint64_t t = a + b;
        a = b;
        b = t;
    }
    return a;
}

namespace {

/** Spawns one fibTask(n) makes: one per internal node at or above the
 * cutoff. */
uint64_t
fibSpawns(int n)
{
    return n < kFibCutoff ? 0 : 1 + fibSpawns(n - 1) + fibSpawns(n - 2);
}

/** One fib root job on @p rt; done also requires the exact value. */
RootRun
rootPass(Runtime &rt, int n, uint64_t expect, uint64_t rep,
         JobSamples *jobs)
{
    uint64_t got = 0;
    ScopedSpan span("workloads", "fib.rep", rep);
    RootRun run = runRootJob(rt, [&] { got = fibTask(n); }, rep, jobs);
    run.done = run.done && got == expect;
    return run;
}

} // namespace

void
runFjFine(const RunArgs &a, Report &r)
{
    const int n = a.small ? 22 : 30;
    const uint64_t expect = fibExact(n);
    const int p = a.cores;
    const double budget = a.seconds;
    r.stamp("input", "fib(" + std::to_string(n) + "), cutoff "
                         + std::to_string(kFibCutoff) + ", "
                         + std::to_string(fibSpawns(n)) + " spawns per rep");
    r.stamp("working_set_bytes", "0 (no data)");

    std::unique_ptr<Runtime> rt;
    timedSetups(r, 9, [&] {
        rt.reset();
        rt = makeRuntime(p, 2);
        for (int i = 0; i < 50; ++i)
            rootPass(*rt, n, expect, 0, nullptr);
    });

    // T_P: P workers, one root job at a time. Each rep is paired with the
    // serial elision run just before it on every core; tp_over_ts is the
    // median pair ratio. The stats cover the P-worker reps only.
    uint64_t rep = 0;
    int64_t fails = 0;
    JobSamples jobs;
    numaws::RuntimeStats stp;
    std::vector<double> tp, tp_ratios;
    const int64_t tp0 = nowNs();
    while (tp.size() < 20 || secondsSince(tp0) < 0.5 * budget) {
        bool ser_ok = true;
        const double s_ser = serialOnCores(0, p, p, [&] {
            ScopedSpan span("workloads", "fibSerial", rep + 1);
            const int64_t b0 = nowNs();
            ser_ok = ser_ok && numaws::workloads::fibSerial(n) == expect;
            return secondsSince(b0);
        });
        rt->resetStats();
        const RootRun run = rootPass(*rt, n, expect, ++rep, &jobs);
        addStats(stp, rt->stats());
        fails += (run.done ? 0 : 1) + (ser_ok ? 0 : 1);
        tp.push_back(run.seconds);
        tp_ratios.push_back(run.seconds / s_ser);
    }
    rt.reset();
    r.ops(2 * static_cast<int64_t>(tp.size()), fails, "fib at P");
    fails = 0;

    // T_S and T_1 in pairs on one worker thread: each job runs the serial
    // elision and the parallel version back to back (alternating which
    // goes first), each timed inside the body, so host noise that comes
    // and goes hits both alike; t1_over_ts is the median pair ratio.
    rt = makeRuntime(1, 1);
    for (int i = 0; i < 5; ++i)
        rootPass(*rt, n, expect, 0, nullptr);
    std::vector<double> ts, t1, ratios;
    const int64_t t0 = nowNs();
    while (ts.size() < 10 || secondsSince(t0) < 0.5 * budget) {
        double s_ser = 0.0, s_par = 0.0;
        uint64_t got_ser = 0, got_par = 0;
        const bool serial_first = ts.size() % 2 == 0;
        const uint64_t id = ++rep;
        rt->run([&] {
            pinCurrentThread(static_cast<int>(ts.size() / 2), p);
            for (int k = 0; k < 2; ++k) {
                const int64_t b0 = nowNs();
                if ((k == 0) == serial_first) {
                    ScopedSpan span("workloads", "fibSerial", id);
                    got_ser = numaws::workloads::fibSerial(n);
                    s_ser = secondsSince(b0);
                } else {
                    ScopedSpan span("workloads", "fibTask on 1 worker", id);
                    got_par = fibTask(n);
                    s_par = secondsSince(b0);
                }
            }
        });
        ts.push_back(s_ser);
        t1.push_back(s_par);
        ratios.push_back(s_par / s_ser);
        fails += (got_ser == expect ? 0 : 1) + (got_par == expect ? 0 : 1);
    }
    rt.reset();
    r.ops(2 * static_cast<int64_t>(ts.size()), fails, "fib on 1 worker");

    const Summary sp = summarize(tp);
    const double ts_s = median(ts);
    const double t1_s = median(t1);
    r.set("ts_s", ts_s, "s", static_cast<int64_t>(ts.size()),
          "timed inside a job body");
    r.set("t1_over_ts", median(ratios), "ratio",
          static_cast<int64_t>(ratios.size()), "median of paired ratios");
    r.set("tp_s", sp.p50, "s", sp.n, "P workers, 2 places");
    r.set("tp_over_ts", median(tp_ratios), "ratio",
          static_cast<int64_t>(tp_ratios.size()),
          "median of paired ratios, P workers / serial elision");
    reportJobLatency(r, sp, 1e6, "root job at P, issue -> return");
    r.set("workloads.fib.ts_s", ts_s, "s", static_cast<int64_t>(ts.size()));
    r.set("workloads.fib.t1_s", t1_s, "s", static_cast<int64_t>(t1.size()));
    r.set("workloads.fib.tp_s", sp.p50, "s", sp.n);

    const double tp_passes = static_cast<double>(tp.size());
    layerStats(r, stp, tp_passes, tp_passes);
    jobs.report(r);
    const double wp =
        stp.time.seconds(numaws::TimeSplit::Work) / tp_passes;
    r.set("runtime.work_inflation", wp / t1_s, "ratio", 0,
          "summed Work bucket per pass at P over T1");
}

} // namespace perfbench
