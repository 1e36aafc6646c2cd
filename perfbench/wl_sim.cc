/**
 * @file
 * sim-suite: the paper suite's dags (simWorkloads) simulated under
 * classic work stealing and NUMA-WS at 32 simulated cores, plus one
 * simulateServing mix. One suite pass is a set of independent
 * simulations; TS runs them in a loop on this thread (the simulator's
 * own cost, sim_s), T1 and TP run each simulation as a spawned task
 * (a parameter sweep on the threaded runtime). Every pass must
 * reproduce the first pass byte for byte, and every simulated T_P must
 * respect the work and span laws.
 */
#include <cinttypes>
#include <cstdio>

#include "bench.h"
#include "sim/scheduler.h"
#include "sim/serving.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

using numaws::nowNs;
using numaws::Runtime;
using numaws::TaskGroup;
namespace sim = numaws::sim;
namespace wl = numaws::workloads;

namespace {

constexpr int kSimCores = 32;
constexpr int kSimSockets = 4;

/** What one simulation task produced. */
struct SimOut
{
    std::string fingerprint; ///< every reported figure, hex floats
    bool lawsHold = true;    ///< T_P >= T1/P and T_P >= T_inf
    double buildS = 0.0;
    double simulateS = 0.0;
    double servingS = 0.0;
    uint64_t strands = 0;
};

void
appendResult(std::string &fp, const sim::SimResult &r)
{
    char buf[512];
    const auto &c = r.counters;
    std::snprintf(buf, sizeof buf,
                  "%a %a %a %a %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 ";",
                  r.elapsedCycles, r.workSeconds, r.schedSeconds,
                  r.idleSeconds, c.strandsExecuted, c.spawns, c.steals,
                  c.stealAttempts, c.mailboxSteals, c.pushSuccesses,
                  c.parks);
    fp += buf;
}

/** Build @p w's dag and simulate it under both schedulers. */
SimOut
simulateWorkload(const wl::SimWorkload &w, uint64_t seed)
{
    SimOut out;
    int64_t t0 = nowNs();
    sim::ComputationDag dag;
    {
        ScopedSpan s("sim", "SimWorkload::build");
        dag = w.build(kSimSockets, wl::Placement::Partitioned, true);
    }
    out.buildS = secondsSince(t0);
    const sim::WorkSpan ws = dag.workSpan();
    sim::SimConfig configs[2] = {sim::SimConfig::classicWs(),
                                 sim::SimConfig::numaWs()};
    t0 = nowNs();
    out.fingerprint = w.name + ":";
    for (sim::SimConfig &cfg : configs) {
        cfg.seed = seed;
        ScopedSpan s("sim", "simulatePacked", 0, dag.numStrands());
        const sim::SimResult r = sim::simulatePacked(dag, kSimCores, cfg);
        appendResult(out.fingerprint, r);
        const double floor = std::max(ws.work / kSimCores, ws.span);
        out.lawsHold = out.lawsHold && r.elapsedCycles >= floor * (1 - 1e-9);
        out.strands += dag.numStrands();
    }
    out.simulateS = secondsSince(t0);
    return out;
}

/** A serving mix: fib(12) Latency jobs interleaved with small heat
 * Normal jobs, Poisson arrivals at half the simulated capacity. */
SimOut
simulateServingMix(uint64_t seed, int jobs)
{
    SimOut out;
    int64_t t0 = nowNs();
    sim::ComputationDag dag;
    std::vector<sim::SimJob> sj;
    double work = 0.0;
    {
        ScopedSpan s("sim", "serving dag build");
        wl::HeatParams heat;
        heat.nx = 64;
        heat.ny = 64;
        heat.steps = 2;
        heat.baseRows = 16;
        const sim::ComputationDag kinds[2] = {
            wl::fibDag(12),
            wl::heatDag(heat, kSimSockets, wl::Placement::Partitioned, true)};
        for (int i = 0; i < jobs; ++i) {
            sim::SimJob j;
            j.root = dag.append(kinds[i % 2]);
            j.cls = i % 2;
            sj.push_back(j);
            work += kinds[i % 2].workSpan().work;
        }
    }
    out.buildS = secondsSince(t0);
    sim::SimConfig cfg = sim::SimConfig::numaWs();
    cfg.seed = seed;
    cfg.modelParking = true;
    const double ghz = 2.2;
    sim::ArrivalProcess ap;
    ap.ratePerSec = 0.5 * kSimCores * ghz * 1e9 / (work / jobs);
    ap.seed = seed;
    const std::vector<double> at = sim::arrivalCycles(ap, jobs, ghz);
    for (int i = 0; i < jobs; ++i)
        sj[static_cast<std::size_t>(i)].arrivalCycles =
            at[static_cast<std::size_t>(i)];
    t0 = nowNs();
    {
        ScopedSpan s("sim", "simulateServingPacked", 0, dag.numStrands());
        const sim::ServingResult r =
            sim::simulateServingPacked(dag, sj, kSimCores, cfg);
        appendResult(out.fingerprint, r.sim);
        char buf[128];
        std::snprintf(buf, sizeof buf, "serving %a %a %" PRIu64 ";",
                      r.p50Us, r.p99Us, r.done);
        out.fingerprint += buf;
        out.lawsHold = r.done == static_cast<uint64_t>(jobs);
    }
    out.servingS = secondsSince(t0);
    out.strands = dag.numStrands();
    return out;
}

/** One suite pass: tasks [0, n) are the suite, task n the serving mix. */
struct Suite
{
    std::vector<wl::SimWorkload> workloads;
    uint64_t seed = 0;
    int servingJobs = 0;

    std::size_t tasks() const { return workloads.size() + 1; }

    SimOut
    runTask(std::size_t i) const
    {
        return i < workloads.size() ? simulateWorkload(workloads[i], seed)
                                    : simulateServingMix(seed, servingJobs);
    }

    std::vector<SimOut>
    serialPass() const
    {
        std::vector<SimOut> out(tasks());
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = runTask(i);
        return out;
    }

    /** Every simulation as its own task; call from inside a job. */
    std::vector<SimOut>
    parallelPass() const
    {
        std::vector<SimOut> out(tasks());
        TaskGroup tg;
        for (std::size_t i = 0; i < out.size(); ++i)
            tg.spawn([this, &out, i] { out[i] = runTask(i); });
        tg.sync();
        return out;
    }
};

/** Passes must match the reference byte for byte and obey the laws. */
bool
matches(const std::vector<SimOut> &got, const std::vector<SimOut> &ref)
{
    if (got.size() != ref.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!got[i].lawsHold || got[i].fingerprint != ref[i].fingerprint)
            return false;
    return true;
}

struct Timed
{
    double seconds = 0.0;
    std::vector<SimOut> out; ///< empty unless the job ended Done
};

Timed
rootPass(Runtime &rt, const Suite &suite, uint64_t rep, JobSamples *jobs)
{
    Timed t;
    ScopedSpan span("workloads", "sim-suite pass", rep);
    const RootRun run =
        runRootJob(rt, [&] { t.out = suite.parallelPass(); }, rep, jobs);
    t.seconds = run.seconds;
    if (!run.done)
        t.out.clear();
    return t;
}

} // namespace

void
runSimSuite(const RunArgs &a, Report &r)
{
    const double scale = a.small ? 0.02 : 0.1;
    const int p = a.cores;
    const double budget = a.seconds;
    Suite suite;
    std::vector<SimOut> ref;
    std::unique_ptr<Runtime> rt;
    timedSetups(r, 9, [&] {
        rt.reset();
        suite = Suite{wl::simWorkloads(scale), a.seed, a.small ? 50 : 400};
        rt = makeRuntime(p, 2);
        rootPass(*rt, suite, 0, nullptr);
    });
    std::string names;
    for (const auto &w : suite.workloads)
        names += w.name + " ";
    r.stamp("input", "simWorkloads(" + std::to_string(scale) + "): " + names
                         + "at " + std::to_string(kSimCores)
                         + " simulated cores, classic + NUMA-WS; serving "
                         + std::to_string(suite.servingJobs) + " jobs");
    r.stamp("working_set_bytes", "simulator dags (host memory)");

    // Reference: the first serial pass, which every later pass must
    // reproduce byte for byte.
    ref = suite.serialPass();
    r.op(matches(ref, ref), "sim-suite reference pass");

    // T_P: each pass at P is paired with a serial pass run just before it
    // on every core; tp_over_ts is the median pair ratio. The stats cover
    // the P-worker passes only.
    uint64_t rep = 0;
    JobSamples jobs;
    numaws::RuntimeStats stp;
    std::vector<double> tp, tp_ratios;
    const int64_t tp0 = nowNs();
    while (tp.size() < 5 || secondsSince(tp0) < 0.55 * budget) {
        const double s_ser = serialOnCores(0, p, p, [&] {
            ScopedSpan span("workloads", "sim-suite serial pass", rep + 1);
            const int64_t b0 = nowNs();
            const std::vector<SimOut> ser = suite.serialPass();
            const double s = secondsSince(b0);
            r.op(matches(ser, ref), "sim-suite serial pass");
            return s;
        });
        rt->resetStats();
        Timed t = rootPass(*rt, suite, ++rep, &jobs);
        addStats(stp, rt->stats());
        r.op(matches(t.out, ref), "sim-suite at P");
        tp.push_back(t.seconds);
        tp_ratios.push_back(t.seconds / s_ser);
    }
    rt.reset();

    // T_S and T_1 in pairs inside one job on one worker, pinned to a
    // rotating core: the serial loop (sim_s) and the same simulations as
    // spawned tasks, alternating which goes first.
    rt = makeRuntime(1, 1);
    std::vector<double> ts, t1, ratios;
    std::vector<double> build_s, sim_s, serving_s, strands_per_s;
    const int64_t t0 = nowNs();
    for (int i = 0; i < 3 || secondsSince(t0) < 0.4 * budget; ++i) {
        std::vector<SimOut> ser, par;
        double s_ser = 0.0, s_par = 0.0;
        const uint64_t id = ++rep;
        rt->run([&] {
            pinCurrentThread(i, p);
            for (int k = 0; k < 2; ++k) {
                const int64_t b0 = nowNs();
                if ((k == 0) == (i % 2 == 0)) {
                    ScopedSpan span("workloads", "sim-suite serial pass", id);
                    ser = suite.serialPass();
                    s_ser = secondsSince(b0);
                } else {
                    ScopedSpan span("workloads", "sim-suite tasks", id);
                    par = suite.parallelPass();
                    s_par = secondsSince(b0);
                }
            }
        });
        r.op(matches(ser, ref), "sim-suite serial pass");
        r.op(matches(par, ref), "sim-suite on 1 worker");
        ts.push_back(s_ser);
        t1.push_back(s_par);
        ratios.push_back(s_par / s_ser);
        double b = 0, sm = 0, sv = 0;
        uint64_t strands = 0;
        for (const SimOut &o : ser) {
            b += o.buildS;
            sm += o.simulateS;
            sv += o.servingS;
            strands += o.strands;
        }
        build_s.push_back(b);
        sim_s.push_back(sm);
        serving_s.push_back(sv);
        strands_per_s.push_back(static_cast<double>(strands) / (sm + sv));
    }
    rt.reset();

    const double ts_s = median(ts);
    const Summary sp = summarize(tp);
    r.set("ts_s", ts_s, "s", static_cast<int64_t>(ts.size()),
          "one suite simulation, single-threaded");
    r.set("sim_s", ts_s, "s", static_cast<int64_t>(ts.size()),
          "the same figure as ts_s");
    r.set("t1_over_ts", median(ratios), "ratio",
          static_cast<int64_t>(ratios.size()),
          "simulations as tasks, median of paired passes");
    r.set("tp_s", sp.p50, "s", sp.n, "simulations as tasks, P workers");
    r.set("tp_over_ts", median(tp_ratios), "ratio",
          static_cast<int64_t>(tp_ratios.size()),
          "median of paired ratios, P workers / serial pass");
    reportJobLatency(r, sp, 1e6, "root job at P, issue -> return");
    r.set("sim.dag_build_s", median(build_s), "s",
          static_cast<int64_t>(build_s.size()));
    r.set("sim.simulate_s", median(sim_s), "s",
          static_cast<int64_t>(sim_s.size()));
    r.set("sim.serving_s", median(serving_s), "s",
          static_cast<int64_t>(serving_s.size()));
    r.set("sim.strands_per_s", median(strands_per_s), "1/s",
          static_cast<int64_t>(strands_per_s.size()));

    const double passes = static_cast<double>(tp.size());
    layerStats(r, stp, passes, passes);
    jobs.report(r);
    const double wp = stp.time.seconds(numaws::TimeSplit::Work) / passes;
    r.set("runtime.work_inflation", wp / median(t1), "ratio", 0,
          "summed Work bucket per pass at P over T1");
}

} // namespace perfbench
