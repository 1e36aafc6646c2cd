#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>

#include "bench.h"
#include "support/timing.h"

namespace perfbench {

using numaws::nowNs;

std::unique_ptr<numaws::Runtime>
makeRuntime(int workers, int places)
{
    numaws::RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = places;
    auto rt = std::make_unique<numaws::Runtime>(o);
    // Pin worker i to core i from inside the runtime: each task pins the
    // worker it lands on, once, and spins briefly so that the others get
    // stolen; rounds repeat until every worker has run one.
    const int cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    std::vector<std::atomic<bool>> pinned(static_cast<std::size_t>(workers));
    int count = 0;
    for (int round = 0; round < 1000 && count < workers; ++round) {
        rt->run([&] {
            numaws::TaskGroup tg;
            for (int k = 0; k < 4 * workers; ++k)
                tg.spawn([&] {
                    const int id = numaws::Worker::current()->id();
                    if (!pinned[static_cast<std::size_t>(id)].exchange(true))
                        pinCurrentThread(id, cores);
                    const int64_t t0 = nowNs();
                    while (nowNs() - t0 < 200000) {
                    }
                });
            tg.sync();
        });
        count = 0;
        for (const auto &p : pinned)
            count += p.load() ? 1 : 0;
    }
    return rt;
}

double
secondsSince(int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

void
timedSetups(Report &r, int times, const std::function<void()> &setup)
{
    std::vector<double> s;
    for (int i = 0; i < times; ++i) {
        const int64_t t0 = nowNs();
        setup();
        s.push_back(secondsSince(t0));
    }
    r.set("setup_s", median(s), "s", static_cast<int64_t>(s.size()),
          "median set-up (runtime, inputs, warm-up)");
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
layerStats(Report &r, const numaws::RuntimeStats &s, double passes,
           double jobs)
{
    using numaws::TimeSplit;
    const auto &c = s.counters;
    const double work = static_cast<double>(s.time.ns(TimeSplit::Work));
    const double sched =
        static_cast<double>(s.time.ns(TimeSplit::Scheduling));
    const double idle = static_cast<double>(s.time.ns(TimeSplit::Idle));
    const double total = work + sched + idle;
    r.set("runtime.work_frac", ratio(work, total), "ratio");
    r.set("runtime.sched_frac", ratio(sched, total), "ratio");
    r.set("runtime.idle_frac", ratio(idle, total), "ratio");
    r.set("runtime.spawns_per_pass",
          ratio(static_cast<double>(c.spawns), passes), "count");
    r.set("runtime.frames_recycled_per_spawn",
          ratio(static_cast<double>(c.framesRecycled),
                static_cast<double>(c.spawns)),
          "ratio");
    r.set("sched.steal_success_ratio",
          ratio(static_cast<double>(c.steals),
                static_cast<double>(c.stealAttempts)),
          "ratio");
    r.set("sched.steal_attempts_per_spawn",
          ratio(static_cast<double>(c.stealAttempts),
                static_cast<double>(c.spawns)),
          "ratio");
    r.set("sched.pushback_success_ratio",
          ratio(static_cast<double>(c.pushbackSuccesses),
                static_cast<double>(c.pushbackAttempts)),
          "ratio");
    r.set("sched.mailbox_takes",
          ratio(static_cast<double>(c.mailboxTakes), passes), "count",
          0, "per pass");
    r.set("sched.hinted_frac",
          ratio(static_cast<double>(c.tasksOnHintedPlace),
                static_cast<double>(c.tasksExecuted)),
          "ratio");
    r.set("sched.parks_per_job",
          ratio(static_cast<double>(c.parks), jobs), "ratio");
    r.set("sched.spurious_wake_ratio",
          ratio(static_cast<double>(c.spuriousWakes),
                static_cast<double>(c.parkWakes)),
          "ratio");
    r.set("sched.parked_frac",
          ratio(static_cast<double>(c.parkedNs), idle), "ratio");
}

void
JobSamples::add(const numaws::JobHandle &h, int64_t body_end_ns,
                int64_t wait_return_ns)
{
    if (h.outcome() != numaws::JobOutcome::Done) {
        ++notDone;
        return;
    }
    ++done;
    queueUs.push_back(static_cast<double>(h.queueNs()) * 1e-3);
    execUs.push_back(static_cast<double>(h.execNs()) * 1e-3);
    if (body_end_ns > 0 && wait_return_ns >= body_end_ns)
        wakeUs.push_back(static_cast<double>(wait_return_ns - body_end_ns)
                         * 1e-3);
}

void
JobSamples::report(Report &r) const
{
    const Summary q = summarize(queueUs);
    r.set("job.queue_us.p50", q.p50, "us", q.n);
    r.set("job.queue_us.p99", q.p99, "us", q.n,
          q.tailNote());
    const Summary e = summarize(execUs);
    r.set("job.exec_us.p50", e.p50, "us", e.n);
    const Summary w = summarize(wakeUs);
    r.set("runtime.wait_wake_us", w.p50, "us", w.n,
          "median body end -> wait() return");
    r.set("job.done", static_cast<double>(done), "count");
    r.set("job.not_done", static_cast<double>(notDone), "count");
}

void
reportJobLatency(Report &r, const Summary &s, double to_us,
                 const std::string &note)
{
    for (const char *name : {"p50_us", "job.p50_us"})
        r.set(name, s.p50 * to_us, "us", s.n, note);
    for (const char *name : {"p99_us", "job.p99_us"})
        r.set(name, s.p99 * to_us, "us", s.n, note + ", " + s.tailNote());
}

RootRun
runRootJob(numaws::Runtime &rt, const std::function<void()> &body,
           uint64_t rep, JobSamples *jobs)
{
    int64_t body_end = 0;
    const int64_t t0 = nowNs();
    numaws::JobHandle h;
    {
        ScopedSpan s("runtime", "Runtime::submit", rep);
        h = rt.submit([&] {
            body();
            body_end = nowNs();
        });
    }
    {
        ScopedSpan s("job", "JobHandle::wait", rep);
        h.wait();
    }
    const int64_t t1 = nowNs();
    if (jobs != nullptr)
        jobs->add(h, body_end, t1);
    return {static_cast<double>(t1 - t0) * 1e-9,
            h.outcome() == numaws::JobOutcome::Done};
}

void
pinCurrentThread(int cpu, int cores)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = 0; c < cores; ++c)
        if (cpu < 0 || c == cpu % cores)
            CPU_SET(c, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double
serialOnCores(int first, int count, int cores,
              const std::function<double()> &serial)
{
    double speed = 0.0;
    for (int c = first; c < first + count; ++c) {
        pinCurrentThread(c, cores);
        speed += 1.0 / serial();
    }
    pinCurrentThread(-1, cores);
    return static_cast<double>(count) / speed;
}

void
addStats(numaws::RuntimeStats &acc, const numaws::RuntimeStats &s)
{
    acc.counters.merge(s.counters);
    acc.time.merge(s.time);
}

double
peakRssMiB()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

} // namespace perfbench
