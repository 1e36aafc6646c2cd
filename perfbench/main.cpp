/**
 * @file
 * perfbench: one binary for every benchmark workload.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             [--small=1] [--sha=REV] [--trace-dir=DIR]
 *
 * Untraced (--trace=0) runs measure the end-to-end metrics. A traced run
 * (--trace=1) runs the workload twice, untraced then traced, on equal
 * shares of the time; it reports the per-layer metrics, each layer's
 * self time, the tracing overhead on tp_s, and writes the spans as a
 * Chrome trace-event file into the trace directory. Exits 1 when any
 * output check failed.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

struct Args
{
    RunArgs run;
    std::string sha = "unknown";
    std::string traceDir = ".bench_build/traces";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--small=1] [--sha=REV] "
                 "[--trace-dir=DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *eq = std::strchr(arg, '=');
        if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr)
            usage(arg);
        const std::string key(arg + 2, eq);
        const std::string val(eq + 1);
        if (key == "workload") {
            a.run.workload = val;
            have_workload = true;
        } else if (key == "seed") {
            a.run.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "seconds") {
            a.run.seconds = std::atof(val.c_str());
        } else if (key == "trace") {
            a.run.trace = val == "1";
        } else if (key == "small") {
            a.run.small = val == "1";
        } else if (key == "sha") {
            a.sha = val;
        } else if (key == "trace-dir") {
            a.traceDir = val;
        } else {
            usage(arg);
        }
    }
    if (!have_workload)
        usage("missing --workload");
    if (!(a.run.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

using WorkloadFn = void (*)(const RunArgs &, Report &);

WorkloadFn
lookup(const std::string &name)
{
    static const std::map<std::string, WorkloadFn> table = {
        {"fj-fine", runFjFine},
        {"numa-kernels", runNumaKernels},
        {"serve-mix", runServeMix},
        {"sim-suite", runSimSuite},
    };
    const auto it = table.find(name);
    if (it == table.end())
        usage(("unknown workload " + name).c_str());
    return it->second;
}

void
stampHost(Report &r, const Args &a)
{
    r.stamp("workload", a.run.workload);
    r.stamp("seed", std::to_string(a.run.seed));
    r.stamp("host_cores", std::to_string(a.run.cores));
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    r.stamp("l2_bytes", std::to_string(l2) + " per core, "
                            + std::to_string(l2 * a.run.cores) + " summed");
    r.stamp("llc_bytes", std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    r.stamp("git_sha", a.sha);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    args.run.cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    if (args.run.cores < 2)
        usage("needs at least 2 host cores");
    const WorkloadFn fn = lookup(args.run.workload);

    Report report;
    stampHost(report, args);
    if (!args.run.trace) {
        fn(args.run, report);
        report.set("rss_peak_mib", peakRssMiB(), "MiB");
        report.printTable(stdout);
    } else {
        RunArgs half = args.run;
        half.seconds = 0.5 * args.run.seconds;
        Report untraced;
        fn(half, untraced);
        std::printf("== untraced ==\n");
        untraced.printTable(stdout);

        Tracer::enable(true);
        fn(half, report);
        runLayerProbes(args.run, report);
        Tracer::enable(false);

        // (T1 - TS) predicted from the probes: spawns x (spawn+sync - call).
        const double t1_extra =
            (report.get("t1_over_ts") - 1.0) * report.get("ts_s");
        report.set("runtime.spawn_model_ratio",
                   t1_extra > 0 ? report.get("runtime.spawns_per_pass")
                                      * (report.get("runtime.spawn_sync_ns")
                                         - report.get("runtime.call_ns"))
                                      * 1e-9 / t1_extra
                                : 0.0,
                   "ratio", 0,
                   "spawns x (spawn_sync - call) / ((t1_over_ts - 1) x ts)");
        report.set("workloads.ts_s", report.get("ts_s"), "s", 0,
                   "the workload's serial-elision pass");
        report.set("workloads.tp_s", report.get("tp_s"), "s", 0,
                   "the workload's P-worker pass");
        const double base = untraced.get("tp_s");
        report.set("trace.overhead_tp",
                   base > 0 ? report.get("tp_s") / base : 0.0, "ratio", 0,
                   "traced tp_s / untraced tp_s");
        report.set("trace.spans", static_cast<double>(Tracer::spanCount()),
                   "count", 0,
                   std::to_string(Tracer::droppedCount()) + " dropped");
        for (const auto &[layer, ms] : Tracer::selfMsByLayer())
            report.set("selftime." + layer + "_ms", ms, "ms");
        report.ops(untraced.attempted(), untraced.failed(), "untraced pass");

        const std::string path = args.traceDir + "/trace-" + args.run.workload
                                 + "-" + std::to_string(args.run.seed)
                                 + ".json";
        const bool wrote = Tracer::writeChromeTrace(path, 50000);
        report.stamp("trace_file", wrote ? path : "(write failed)");
        std::printf("== traced ==\n");
        report.printTable(stdout);
    }
    std::fflush(stdout);
    report.printJson(stdout);
    return report.failed() == 0 ? 0 : 1;
}
