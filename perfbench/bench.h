/**
 * @file
 * Declarations shared by the perfbench workloads, the layer probes and
 * main(): run arguments, the shipped-defaults runtime factory, phase
 * timing helpers and the per-layer readings taken from Runtime::stats().
 */
#ifndef NUMAWS_PERFBENCH_BENCH_H
#define NUMAWS_PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "numaws.h"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reduced inputs for the smoke test (names and units only). */
    bool small = false;
    /** Host cores; the benchmark never runs more threads than this. */
    int cores = 1;
};

/** Shipped defaults: RuntimeOptions{} with only the worker and place
 * counts set (no ablation recipe, no adaptive preset). Worker i is then
 * pinned to host core i from the benchmark's side: left to the OS,
 * parked workers were seen piled onto one core for a whole run, which
 * tripled set-up time and light-load p99 in one run of four. */
std::unique_ptr<numaws::Runtime> makeRuntime(int workers, int places);

/** Seconds since @p t0_ns. */
double secondsSince(int64_t t0_ns);

/**
 * Time @p setup @p times times, keeping the last instance: every call
 * builds a fresh instance (runtime, inputs, warm-up) and the previous
 * one is destroyed first, so only one runtime is ever live. Reports the
 * median as setup_s.
 */
void timedSetups(Report &r, int times, const std::function<void()> &setup);

/** Per-pass layer readings from a stats() delta over @p passes passes
 * and @p jobs root jobs: runtime time split, sched ratios, pool reuse. */
void layerStats(Report &r, const numaws::RuntimeStats &s, double passes,
                double jobs);

/**
 * Job-layer readings from root-job handles: queue and exec percentiles
 * and wait() wake-up latency (body end -> wait() return).
 */
struct JobSamples
{
    std::vector<double> queueUs;
    std::vector<double> execUs;
    std::vector<double> wakeUs;
    int64_t done = 0;
    int64_t notDone = 0;

    void add(const numaws::JobHandle &h, int64_t body_end_ns,
             int64_t wait_return_ns);
    void report(Report &r) const;
};

/** Root-job latency of the full-width phase (@p s scaled by @p to_us to
 * microseconds): printed as p50_us/p99_us, reported per layer as
 * job.p50_us/job.p99_us. */
void reportJobLatency(Report &r, const Summary &s, double to_us,
                      const std::string &note);

/** What one root job took, issue to wait() return, and whether it
 * ended Done. */
struct RootRun
{
    double seconds = 0.0;
    bool done = false;
};

/** Submit @p body as one root job on @p rt and wait for it; samples the
 * handle into @p jobs when non-null. */
RootRun runRootJob(numaws::Runtime &rt, const std::function<void()> &body,
                   uint64_t rep, JobSamples *jobs);

/** @name fib, shared by fj-fine and serve-mix */
/// @{
constexpr int kFibCutoff = 12;
/** Parallel fib: spawn fib(n-1), call fib(n-2), sync; serial below
 * kFibCutoff. Call from inside a job. */
uint64_t fibTask(int n);
/** fib(n) by iteration, the value every fib output is checked against. */
uint64_t fibExact(int n);
/// @}

/**
 * Restrict the calling thread to host core @p cpu (modulo @p cores), or
 * release it to all cores when @p cpu is negative. Serial and 1-worker
 * reps rotate over the cores with it, so every run samples every core
 * instead of whichever one the scheduler happened to pick.
 */
void pinCurrentThread(int cpu, int cores);

/**
 * The serial elision's time across host cores @p first .. @p first +
 * @p count - 1: @p serial (which returns its own seconds) runs once on
 * this thread pinned to each core in turn, while the runtime's workers
 * idle, and the harmonic mean of the times is returned. The cores of a
 * shared host can differ in speed by 2x at one moment; a P-worker pass
 * that wasted nothing would take this time / P, whichever cores are
 * slow. Leaves this thread free to run on any core.
 */
double serialOnCores(int first, int count, int cores,
                     const std::function<double()> &serial);

/** Add @p s's counters and time split into @p acc. */
void addStats(numaws::RuntimeStats &acc, const numaws::RuntimeStats &s);

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/** @name Workloads: each fills the end-to-end metrics (and the per-layer
 * readings it can take) into @p r and counts every checked output. */
/// @{
void runFjFine(const RunArgs &a, Report &r);
void runNumaKernels(const RunArgs &a, Report &r);
void runServeMix(const RunArgs &a, Report &r);
void runSimSuite(const RunArgs &a, Report &r);
/// @}

/** Micro-loop probes of single layers (one span per loop). */
void runLayerProbes(const RunArgs &a, Report &r);

} // namespace perfbench

#endif // NUMAWS_PERFBENCH_BENCH_H
