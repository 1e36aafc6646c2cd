/**
 * @file
 * serve-mix: one generator thread and P-1 workers serving small
 * fork-join jobs in three JobClasses. Each job allocates a scratch block
 * with numa::allocate; the generator frees it after the job completes,
 * which is a remote free. Phases: open-loop Poisson arrivals at a light
 * and at a rated fixed rate (latency from each job's due time), then a
 * closed loop with a fixed in-flight window (throughput). The rates are
 * constants, never calibrated at run time, because a calibrated rate
 * would move with the code under test.
 */
#include <cmath>
#include <cstdlib>

#include "bench.h"
#include "support/rng.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

using numaws::JobClass;
using numaws::JobHandle;
using numaws::nowNs;
using numaws::Runtime;
using numaws::TaskGroup;

namespace {

/**
 * Poisson arrival rates, jobs per second. On a 4-vCPU host (3 workers
 * plus the generator) the closed loop below saturated at 130k-191k
 * jobs/s, median 156k, over 19 runs of 10-25 s. The rated rate is 64%
 * of that median, so the rated phase measures queueing; the light rate
 * is about 1% of it, so nearly every job finds the workers parked.
 */
constexpr double kLightRate = 2000.0;
constexpr double kRatedRate = 100000.0;
/** Closed-loop in-flight window and jobs per timed batch. */
constexpr int kWindow = 32;
constexpr int kBatch = 2000;
/** Distinct job specs; jobs cycle through them. */
constexpr int kSpecs = 4096;

enum class Kind : uint8_t { Fib, Sum };

struct Spec
{
    Kind kind = Kind::Fib;
    JobClass cls = JobClass::Normal;
    int n = 0;             ///< fib argument, or sum words
    uint64_t salt = 0;     ///< sum input seed
    std::size_t bytes = 0; ///< scratch block
    uint64_t expect = 0;
};

uint64_t
word(uint64_t salt, uint64_t i)
{
    uint64_t x = salt + i * 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ULL;
    return x ^ (x >> 29);
}

std::vector<Spec>
makeSpecs(uint64_t seed)
{
    numaws::Rng rng(seed ^ 0x5e7e);
    std::vector<Spec> specs(kSpecs);
    for (Spec &s : specs) {
        const uint64_t pick = rng.nextBounded(10);
        if (pick < 5) { // Latency: small fib, small scratch
            s.kind = Kind::Fib;
            s.cls = JobClass::Latency;
            s.n = 16 + static_cast<int>(rng.nextBounded(3));
            s.bytes = 256;
            s.expect = fibExact(s.n);
        } else if (pick < 8) { // Normal: 4-way parallel sum over scratch
            s.kind = Kind::Sum;
            s.cls = JobClass::Normal;
            s.n = 2048;
            s.salt = rng.next();
            s.bytes = static_cast<std::size_t>(s.n) * sizeof(uint64_t);
            uint64_t sum = 0;
            for (int i = 0; i < s.n; ++i)
                sum += word(s.salt, static_cast<uint64_t>(i));
            s.expect = sum;
        } else { // Batch: larger fib
            s.kind = Kind::Fib;
            s.cls = JobClass::Batch;
            s.n = 20 + static_cast<int>(rng.nextBounded(2));
            s.bytes = 4096;
            s.expect = fibExact(s.n);
        }
    }
    return specs;
}

/** Fill and sum words [begin, end) of the scratch block. */
uint64_t
sumRange(uint64_t *w, uint64_t salt, int begin, int end)
{
    uint64_t sum = 0;
    for (int i = begin; i < end; ++i) {
        w[i] = word(salt, static_cast<uint64_t>(i));
        sum += w[i];
    }
    return sum;
}

/** The job body; @p par spawns (inside a job) or runs the serial
 * elision. Writes the result into the scratch block's first word. */
void
jobBody(const Spec &s, void *scratch, bool par)
{
    auto *w = static_cast<uint64_t *>(scratch);
    if (s.kind == Kind::Fib) {
        w[0] = par ? fibTask(s.n) : numaws::workloads::fibSerial(s.n);
        return;
    }
    uint64_t part[4] = {0, 0, 0, 0};
    const int q = s.n / 4;
    if (par) {
        TaskGroup tg;
        for (int k = 1; k < 4; ++k)
            tg.spawn([&part, w, &s, k, q] {
                part[k] = sumRange(w, s.salt, k * q, (k + 1) * q);
            });
        part[0] = sumRange(w, s.salt, 0, q);
        tg.sync();
    } else {
        for (int k = 0; k < 4; ++k)
            part[k] = sumRange(w, s.salt, k * q, (k + 1) * q);
    }
    w[0] = part[0] + part[1] + part[2] + part[3];
}

/** One job in flight. */
struct Slot
{
    const Spec *spec = nullptr;
    JobHandle handle;
    void *scratch = nullptr;
    int64_t dueNs = 0;
    int64_t issuedNs = 0;
    bool retired = false;
};

/** Generator-side bookkeeping shared by every phase on one runtime. */
struct Server
{
    Runtime &rt;
    const std::vector<Spec> &specs;
    uint64_t next = 0;        ///< spec cursor
    int64_t submitNs = 0;     ///< generator time inside submit()
    int64_t submits = 0;
    uint64_t bytesRequested = 0;
    int64_t failed = 0;
    int64_t completed = 0;

    void
    issue(Slot &slot, int64_t due_ns, uint64_t group)
    {
        slot.spec = &specs[next++ % specs.size()];
        slot.dueNs = due_ns;
        slot.scratch = nullptr;
        slot.retired = false;
        bytesRequested += slot.spec->bytes;
        numaws::JobOptions opts;
        opts.cls = slot.spec->cls;
        ScopedSpan span("runtime", "Runtime::submit", group);
        slot.issuedNs = nowNs();
        slot.handle = rt.submit(
            [&slot] {
                void *p;
                {
                    ScopedSpan s("mem", "numa::allocate", 0);
                    p = numaws::numa::allocate(slot.spec->bytes);
                }
                jobBody(*slot.spec, p, true);
                slot.scratch = p;
            },
            opts);
        submitNs += nowNs() - slot.issuedNs;
        ++submits;
    }

    /** Check a completed slot's outcome and result, then free its
     * scratch block from this (non-worker) thread. */
    bool
    retire(Slot &slot, uint64_t group)
    {
        bool ok = slot.handle.outcome() == numaws::JobOutcome::Done
                  && slot.scratch != nullptr
                  && *static_cast<uint64_t *>(slot.scratch)
                         == slot.spec->expect;
        {
            ScopedSpan s("mem", "numa::deallocate (remote)", group);
            numaws::numa::deallocate(slot.scratch);
        }
        slot.scratch = nullptr;
        slot.retired = true;
        ++completed;
        failed += ok ? 0 : 1;
        return ok;
    }
};

std::vector<double>
poissonOffsetsNs(double rate, double seconds, uint64_t seed)
{
    numaws::Rng rng(seed);
    std::vector<double> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.nextDouble()) / rate * 1e9;
        if (t >= seconds * 1e9)
            return out;
        out.push_back(t);
    }
}

/** Open loop at @p rate for @p seconds: issue each job at its due time,
 * and while waiting poll the jobs in flight round-robin, retiring each
 * as it completes. Retiring out of order frees a finished job's scratch
 * even while an older Batch job still waits behind higher classes. */
DueLatency
openLoop(Server &sv, double rate, double seconds, uint64_t seed,
         JobSamples *jobs)
{
    const std::vector<double> off = poissonOffsetsNs(rate, seconds, seed);
    std::vector<Slot> slots(off.size());
    DueLatency lat;
    std::size_t head = 0; ///< every slot before head is retired
    std::size_t scan = 0;
    auto finish = [&](std::size_t i) {
        Slot &s = slots[i];
        const bool ok = sv.retire(s, i);
        if (jobs != nullptr)
            jobs->add(s.handle, 0, 0);
        lat.record(s.dueNs, s.issuedNs, s.issuedNs + s.handle.latencyNs(),
                   ok);
    };
    const int64_t t0 = nowNs() + 1000000;
    for (std::size_t i = 0; i < off.size(); ++i) {
        const int64_t due = t0 + static_cast<int64_t>(off[i]);
        while (nowNs() < due) {
            while (head < i && slots[head].retired)
                ++head;
            if (head == i)
                continue;
            if (scan < head || scan >= i)
                scan = head;
            if (!slots[scan].retired && slots[scan].handle.done())
                finish(scan);
            ++scan;
        }
        sv.issue(slots[i], due, i);
    }
    for (; head < slots.size(); ++head) {
        if (slots[head].retired)
            continue;
        slots[head].handle.wait();
        finish(head);
    }
    return lat;
}

/**
 * Closed loop: @p count jobs with at most kWindow in flight. Returns
 * wall seconds. The generator polls the oldest job's done() on its own
 * core rather than sleeping in wait(): on a VM a sleeping vCPU needs the
 * host to schedule it again, and under host load that wake-up, not the
 * runtime, would set the throughput (it cut it 3x in one measured set).
 */
double
closedLoop(Server &sv, int count)
{
    std::vector<Slot> ring(kWindow);
    const int64_t t0 = nowNs();
    int issued = 0, done = 0;
    while (done < count) {
        while (issued < count && issued - done < kWindow)
            sv.issue(ring[static_cast<std::size_t>(issued++ % kWindow)], 0,
                     0);
        Slot &s = ring[static_cast<std::size_t>(done % kWindow)];
        {
            ScopedSpan span("job", "JobHandle::done poll", 0);
            while (!s.handle.done()) {
            }
        }
        sv.retire(s, 0);
        ++done;
    }
    return secondsSince(t0);
}

/** The serial elision of @p count jobs: bodies inline, malloc scratch. */
void
serialBatch(const std::vector<Spec> &specs, uint64_t &cursor, int count,
            int64_t &failed)
{
    ScopedSpan span("workloads", "serve-mix serial batch", 0, count);
    for (int i = 0; i < count; ++i) {
        const Spec &s = specs[cursor++ % specs.size()];
        void *p = std::malloc(s.bytes);
        jobBody(s, p, false);
        failed += *static_cast<uint64_t *>(p) == s.expect ? 0 : 1;
        std::free(p);
    }
}

} // namespace

void
runServeMix(const RunArgs &a, Report &r)
{
    const int workers = a.cores - 1;
    const double budget = a.seconds;
    const int batch = a.small ? 200 : kBatch;
    r.stamp("input", "specs " + std::to_string(kSpecs)
                         + " (50% Latency fib 16-18, 30% Normal 4-way sum "
                           "16 KiB, 20% Batch fib 20-21); light "
                         + std::to_string(static_cast<int>(kLightRate))
                         + "/s, rated "
                         + std::to_string(static_cast<int>(kRatedRate))
                         + "/s, window " + std::to_string(kWindow)
                         + ", batch " + std::to_string(batch));
    r.stamp("working_set_bytes", "scratch 256 B-16 KiB per job");

    std::vector<Spec> specs;
    std::unique_ptr<Runtime> rt;
    timedSetups(r, 9, [&] {
        rt.reset();
        specs = makeSpecs(a.seed);
        // Workers sit on cores 0..P-2; the generator gets the last one.
        rt = makeRuntime(workers, 2);
        pinCurrentThread(a.cores - 1, a.cores);
        Server warm{*rt, specs};
        closedLoop(warm, 2 * batch);
    });

    // Open loop: light, then rated. The generator has the last core to
    // itself; worker i runs on core i.
    Server sv{*rt, specs};
    rt->resetStats();
    const DueLatency light =
        openLoop(sv, kLightRate, 0.15 * budget, a.seed * 7 + 1, nullptr);
    JobSamples jobs;
    const DueLatency rated =
        openLoop(sv, kRatedRate, 0.2 * budget, a.seed * 7 + 2, &jobs);
    const numaws::RuntimeStats sopen = rt->stats();

    // Saturation: closed loop, fixed window. Each batch is paired with the
    // same jobs' serial elision, run just before it on every worker's
    // core; tp_over_ts is the median pair ratio. The stats cover the
    // closed-loop batches only.
    numaws::RuntimeStats ssat;
    std::vector<double> tp, tp_ratios;
    int64_t serial_failed = 0;
    const int64_t tp0 = nowNs();
    while (tp.size() < 5 || secondsSince(tp0) < 0.3 * budget) {
        const double s_ser = serialOnCores(0, workers, a.cores, [&] {
            uint64_t cursor = sv.next;
            const int64_t b0 = nowNs();
            serialBatch(specs, cursor, batch, serial_failed);
            return secondsSince(b0);
        });
        pinCurrentThread(a.cores - 1, a.cores);
        rt->resetStats();
        tp.push_back(closedLoop(sv, batch));
        addStats(ssat, rt->stats());
        tp_ratios.push_back(tp.back() / s_ser);
    }
    r.ops(static_cast<int64_t>(tp.size()) * batch * workers, serial_failed,
          "serial job bodies");
    pinCurrentThread(-1, a.cores);
    r.ops(sv.completed, sv.failed, "served jobs");
    rt.reset();

    // T_S and T_1 in pairs: the same batch of jobs run as inline bodies
    // inside one job (malloc scratch, no spawns) and through the closed
    // loop, both on the one worker, pinned to the pair's core (rotating);
    // the generator sits on the next core.
    rt = makeRuntime(1, 1);
    Server sv1{*rt, specs};
    closedLoop(sv1, batch);
    std::vector<double> ts, t1, ratios;
    serial_failed = 0;
    const int64_t t0 = nowNs();
    for (int i = 0; i < 3 || secondsSince(t0) < 0.3 * budget; ++i) {
        const uint64_t start = static_cast<uint64_t>(i) * batch;
        auto serial = [&] {
            double s_ser = 0.0;
            rt->run([&] {
                pinCurrentThread(i, a.cores);
                uint64_t cursor = start;
                const int64_t b0 = nowNs();
                serialBatch(specs, cursor, batch, serial_failed);
                s_ser = secondsSince(b0);
            });
            return s_ser;
        };
        auto one = [&] {
            rt->run([i, &a] { pinCurrentThread(i, a.cores); });
            pinCurrentThread(i + 1, a.cores);
            sv1.next = start;
            return closedLoop(sv1, batch);
        };
        double s_ser = 0.0, s_one = 0.0;
        if (i % 2 == 0) {
            s_ser = serial();
            s_one = one();
        } else {
            s_one = one();
            s_ser = serial();
        }
        ts.push_back(s_ser);
        t1.push_back(s_one);
        ratios.push_back(s_one / s_ser);
    }
    pinCurrentThread(-1, a.cores);
    r.ops(static_cast<int64_t>(ts.size()) * batch, serial_failed,
          "serial job bodies");
    r.ops(sv1.completed, sv1.failed, "served jobs, 1 worker");
    rt.reset();

    const double ts_s = median(ts);
    const double tp_s = median(tp);
    r.set("ts_s", ts_s, "s", static_cast<int64_t>(ts.size()),
          std::to_string(batch) + " job bodies inline");
    r.set("t1_over_ts", median(ratios), "ratio",
          static_cast<int64_t>(ratios.size()),
          "1 worker closed loop, median of paired batches");
    r.set("tp_s", tp_s, "s", static_cast<int64_t>(tp.size()),
          std::to_string(batch) + " jobs, P-1 workers, window "
              + std::to_string(kWindow));
    r.set("tp_over_ts", median(tp_ratios), "ratio",
          static_cast<int64_t>(tp_ratios.size()),
          "median of paired batches, closed loop / serial elision");
    reportJobLatency(r, summarize(rated.latencyUs()), 1.0,
                     "rated load, from due time");
    // The serving figures under their own names as well as in the job
    // layer's per-layer set.
    const Summary sl = summarize(light.latencyUs());
    for (const char *name : {"p99_light_us", "job.light_p99_us"})
        r.set(name, sl.p99, "us", sl.n,
              "light load, from due time " + sl.tailNote());
    for (const char *name : {"sat_jobs_per_s", "job.sat_jobs_per_s"})
        r.set(name, batch / tp_s, "1/s", static_cast<int64_t>(tp.size()),
              "closed loop, window " + std::to_string(kWindow));
    const Summary late = summarize(rated.lateUs());
    r.set("job.gen_late_us.p99", late.p99, "us", late.n,
          "generator lateness, rated load");
    r.set("runtime.submit_ns",
          sv.submits > 0 ? static_cast<double>(sv.submitNs)
                               / static_cast<double>(sv.submits)
                         : 0.0,
          "ns", sv.submits, "mean generator time in submit()");

    const double open_jobs =
        static_cast<double>(light.attempted() + rated.attempted());
    layerStats(r, sopen, open_jobs, open_jobs);
    jobs.report(r);
    r.set("mem.data_pooled_frac",
          static_cast<double>(sopen.counters.dataBytesPooled
                              + ssat.counters.dataBytesPooled)
              / static_cast<double>(std::max<uint64_t>(1,
                                                       sv.bytesRequested)),
          "ratio");
    const double wp = ssat.time.seconds(numaws::TimeSplit::Work)
                      / static_cast<double>(tp.size());
    r.set("runtime.work_inflation", wp / median(t1), "ratio", 0,
          "summed Work bucket per saturation batch over the T1 batch");
}

} // namespace perfbench
