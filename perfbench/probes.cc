/**
 * @file
 * Layer probes: tight loops over one layer's public functions, each
 * timed as one span carrying its op count. They run in every traced
 * run, after the workload, on their own short-lived runtimes (one live
 * at a time).
 */
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench.h"
#include "deque/mailbox.h"
#include "deque/ws_deque.h"
#include "layout/zmorton.h"
#include "support/timing.h"

namespace perfbench {

using numaws::nowNs;

namespace {

/** Time @p ops operations done by @p body as one span; ns per op. */
template <typename F>
double
perOp(const char *layer, const char *name, uint64_t ops, F &&body)
{
    ScopedSpan span(layer, name, 0, ops);
    const int64_t t0 = nowNs();
    body();
    return static_cast<double>(nowNs() - t0) / static_cast<double>(ops);
}

[[gnu::noinline]] uint64_t
plainCall(uint64_t x)
{
    asm volatile("" : "+r"(x));
    return x + 1;
}

template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

} // namespace

void
runLayerProbes(const RunArgs &a, Report &r)
{
    const uint64_t scale = a.small ? 1 : 10;
    uint64_t sink = 0;

    const double call_ns =
        perOp("runtime", "plain call", 1000000 * scale, [&] {
            for (uint64_t i = 0; i < 1000000 * scale; ++i)
                sink = plainCall(sink);
        });
    r.set("runtime.call_ns", call_ns, "ns");

    r.set("support.now_ns", perOp("support", "nowNs", 200000 * scale, [&] {
              for (uint64_t i = 0; i < 200000 * scale; ++i)
                  sink += static_cast<uint64_t>(nowNs());
          }),
          "ns");

    r.set("layout.zmorton_encode_ns",
          perOp("layout", "zMortonEncode", 1000000 * scale, [&] {
              for (uint64_t i = 0; i < 1000000 * scale; ++i)
                  sink += numaws::zMortonEncode(
                      static_cast<uint32_t>(i ^ sink) & 0xffff,
                      static_cast<uint32_t>(i >> 3));
          }),
          "ns");

    r.set("mem.plain_alloc_free_ns",
          perOp("mem", "malloc/free", 200000 * scale, [&] {
              for (uint64_t i = 0; i < 200000 * scale; ++i) {
                  void *p = std::malloc(64 + (i & 7) * 512);
                  keep(p);
                  std::free(p);
              }
          }),
          "ns");

    {
        constexpr int kBatch = 64;
        static int items[kBatch];
        numaws::WsDeque<int> dq(1024);
        const uint64_t rounds = 20000 * scale;
        r.set("deque.push_pop_ns",
              perOp("deque", "pushTail/popTail", rounds * kBatch, [&] {
                  for (uint64_t k = 0; k < rounds; ++k) {
                      for (int &it : items)
                          dq.pushTail(&it);
                      for (int i = 0; i < kBatch; ++i)
                          sink += dq.popTail() != nullptr;
                  }
              }),
              "ns");
        r.set("deque.steal_ns",
              perOp("deque", "pushTail/stealHead", rounds * kBatch, [&] {
                  for (uint64_t k = 0; k < rounds; ++k) {
                      for (int &it : items)
                          dq.pushTail(&it);
                      for (int i = 0; i < kBatch; ++i)
                          sink += dq.stealHead() != nullptr;
                  }
              }),
              "ns");
        numaws::Mailbox<int> mb(1);
        r.set("deque.mailbox_put_take_ns",
              perOp("deque", "Mailbox tryPut/tryTake", rounds * kBatch, [&] {
                  for (uint64_t k = 0; k < rounds * kBatch; ++k) {
                      sink += mb.tryPut(&items[k % kBatch]);
                      sink += mb.tryTake() != nullptr;
                  }
              }),
              "ns");
    }

    // One worker: spawn+sync, data-heap alloc/free, remote free, submit.
    {
        auto rt = makeRuntime(1, 1);
        const uint64_t spawns = 200000 * scale;
        double spawn_ns = 0.0;
        rt->run([&] {
            spawn_ns = perOp("runtime", "TaskGroup spawn+sync", spawns, [&] {
                for (uint64_t i = 0; i < spawns; ++i) {
                    numaws::TaskGroup tg;
                    tg.spawn([&sink] { ++sink; });
                    tg.sync();
                }
            });
        });
        r.set("runtime.spawn_sync_ns", spawn_ns, "ns");
        r.set("runtime.spawn_over_call", spawn_ns / call_ns, "ratio");

        const uint64_t allocs = 100000 * scale;
        double heap_ns = 0.0;
        rt->resetStats();
        rt->run([&] {
            heap_ns = perOp("mem", "numa::allocate/deallocate", allocs, [&] {
                for (uint64_t i = 0; i < allocs; ++i) {
                    void *p = numaws::numa::allocate(64 + (i & 7) * 512);
                    keep(p);
                    numaws::numa::deallocate(p);
                }
            });
        });
        r.set("mem.heap_alloc_free_ns", heap_ns, "ns");
        if (!r.has("mem.data_pooled_frac")) {
            uint64_t requested = 0;
            for (uint64_t i = 0; i < allocs; ++i)
                requested += 64 + (i & 7) * 512;
            r.set("mem.data_pooled_frac",
                  static_cast<double>(rt->stats().counters.dataBytesPooled)
                      / static_cast<double>(requested),
                  "ratio", 0, "probe allocations");
        }

        const std::size_t remote = 20000 * scale;
        std::vector<void *> blocks(remote);
        rt->run([&] {
            for (void *&p : blocks)
                p = numaws::numa::allocate(256);
        });
        r.set("mem.heap_remote_free_ns",
              perOp("mem", "numa::deallocate (remote)", remote, [&] {
                  for (void *p : blocks)
                      numaws::numa::deallocate(p);
              }),
              "ns");

        if (!r.has("runtime.submit_ns")) {
            const std::size_t jobs = 5000 * scale;
            std::vector<numaws::JobHandle> hs(jobs);
            r.set("runtime.submit_ns",
                  perOp("runtime", "Runtime::submit", jobs, [&] {
                      for (auto &h : hs)
                          h = rt->submit([] {});
                  }),
                  "ns", static_cast<int64_t>(jobs), "empty jobs, 1 worker");
            for (auto &h : hs)
                h.wait();
        }
    }

    // Two workers: a spawn the other worker must steal. The owner spins
    // until the child starts, so every child is taken by the thief.
    {
        auto rt = makeRuntime(2, 1);
        const uint64_t n = 5000 * scale;
        uint64_t stolen = 0;
        double ns = 0.0;
        rt->run([&] {
            ns = perOp("runtime", "stolen spawn+sync", n, [&] {
                for (uint64_t i = 0; i < n; ++i) {
                    std::atomic<bool> started{false};
                    numaws::TaskGroup tg;
                    tg.spawn([&started] {
                        started.store(true, std::memory_order_release);
                    });
                    const int64_t give_up = nowNs() + 1000000;
                    while (!started.load(std::memory_order_acquire)
                           && nowNs() < give_up)
                        std::this_thread::yield();
                    stolen += started.load(std::memory_order_acquire);
                    tg.sync();
                }
            });
        });
        r.set("runtime.stolen_spawn_ns", ns, "ns",
              static_cast<int64_t>(stolen), "samples = spawns stolen");
    }

    // P workers, 2 places: PartedVec build (allocation + first touch).
    if (!r.has("mem.parted_build_ms")) {
        auto rt = makeRuntime(a.cores, 2);
        const std::size_t n = (a.small ? 1 : 8) * (std::size_t{1} << 20);
        ScopedSpan span("mem", "PartedVec build", 0, n);
        const int64_t t0 = nowNs();
        numaws::PartedVec<double> v(*rt, n, 1024);
        r.set("mem.parted_build_ms", secondsSince(t0) * 1e3, "ms", 0,
              std::to_string(n * sizeof(double)) + " bytes");
        keep(v);
    }
    keep(sink);
}

} // namespace perfbench
