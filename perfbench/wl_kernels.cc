/**
 * @file
 * numa-kernels: cilksort on CilksortBuffers, heat on PartedVec grids and
 * a blocked Z-Morton matmul, each run as serial elision, on one worker
 * and on P workers over 2 places with hints on. The data plane, the
 * mailboxes and the layout do the work; spawn overhead is a small
 * share of it.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "layout/blocked_matrix.h"
#include "support/rng.h"
#include "support/timing.h"
#include "workloads/workloads.h"

namespace perfbench {

using numaws::BlockedZMatrix;
using numaws::nowNs;
using numaws::PartedVec;
using numaws::Runtime;
using numaws::TaskGroup;
namespace wl = numaws::workloads;

namespace {

enum Kernel { kCilksort = 0, kHeat = 1, kMatmul = 2, kNumKernels = 3 };
constexpr const char *kKernelNames[kNumKernels] = {"cilksort", "heat",
                                                   "matmul-z"};

struct Sizes
{
    wl::CilksortParams sort;
    wl::HeatParams heat;
    uint32_t mmN = 512;
    uint32_t mmBlock = 64;

    explicit Sizes(bool small)
    {
        sort.n = small ? (1 << 16) : (1 << 20);
        heat.nx = small ? 128 : 1024;
        heat.ny = small ? 128 : 1024;
        heat.steps = 16;
        heat.baseRows = 32;
        mmN = small ? 128 : 512;
        mmBlock = small ? 32 : 64;
    }
    std::size_t cells() const
    {
        return static_cast<std::size_t>(heat.nx)
               * static_cast<std::size_t>(heat.ny);
    }
};

/** C += A * B over blocked-Z matrices, recursing on block indices; the
 * serial elision when @p par is false. Each C block receives its
 * contributions in the same order either way, so results are
 * bit-identical. */
void
matmulZ(const BlockedZMatrix<double> &a, const BlockedZMatrix<double> &b,
        BlockedZMatrix<double> &c, uint32_t bi, uint32_t bj, uint32_t bk,
        uint32_t s, bool par)
{
    const uint32_t blk = a.block();
    if (s == 1) {
        const double *__restrict ap = a.blockPtr(bi, bk);
        const double *__restrict bp = b.blockPtr(bk, bj);
        double *__restrict cp = c.blockPtr(bi, bj);
        for (uint32_t i = 0; i < blk; ++i)
            for (uint32_t k = 0; k < blk; ++k) {
                const double aik = ap[i * blk + k];
                for (uint32_t j = 0; j < blk; ++j)
                    cp[i * blk + j] += aik * bp[k * blk + j];
            }
        return;
    }
    const uint32_t h = s / 2;
    for (uint32_t half = 0; half < 2; ++half) {
        if (!par) {
            for (uint32_t i = 0; i < 2; ++i)
                for (uint32_t j = 0; j < 2; ++j)
                    matmulZ(a, b, c, bi + i * h, bj + j * h, bk + half * h,
                            h, false);
            continue;
        }
        TaskGroup tg;
        for (uint32_t i = 0; i < 2; ++i)
            for (uint32_t j = 0; j < 2; ++j) {
                // The C quadrant is one contiguous Z range: hint by it.
                const double *cq = c.blockPtr(bi + i * h, bj + j * h);
                tg.spawn(
                    [&a, &b, &c, bi, bj, bk, i, j, h, half] {
                        matmulZ(a, b, c, bi + i * h, bj + j * h,
                                bk + half * h, h, true);
                    },
                    numaws::kInheritPlace, cq,
                    static_cast<std::size_t>(h) * h * c.blockBytes());
            }
        tg.sync();
    }
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-independent checksum of a multiset of keys. */
uint64_t
multisetSum(const int64_t *v, int64_t n)
{
    uint64_t s = 0;
    for (int64_t i = 0; i < n; ++i)
        s += mix64(static_cast<uint64_t>(v[i]));
    return s;
}

/** Seeded inputs, shared read-only by every phase. */
struct Inputs
{
    std::vector<int64_t> keys;
    uint64_t keysSum = 0;
    std::vector<double> grid;
    std::vector<double> mmA, mmB; ///< row-major
    BlockedZMatrix<double> az, bz;

    Inputs(const Sizes &sz, uint64_t seed)
        : az(sz.mmN, sz.mmBlock), bz(sz.mmN, sz.mmBlock)
    {
        numaws::Rng rng(seed);
        keys.resize(static_cast<std::size_t>(sz.sort.n));
        for (auto &k : keys)
            k = static_cast<int64_t>(rng.next() >> 1);
        keysSum = multisetSum(keys.data(), sz.sort.n);
        grid.resize(sz.cells());
        for (auto &g : grid)
            g = rng.nextDouble();
        const std::size_t mm = static_cast<std::size_t>(sz.mmN) * sz.mmN;
        mmA.resize(mm);
        mmB.resize(mm);
        for (auto &x : mmA)
            x = rng.nextDouble() - 0.5;
        for (auto &x : mmB)
            x = rng.nextDouble() - 0.5;
        {
            ScopedSpan s("layout", "BlockedZMatrix::fromRowMajor", 0, 2 * mm);
            az.fromRowMajor(mmA.data());
            bz.fromRowMajor(mmB.data());
        }
    }
};

/** The buffers one runtime's passes work in (data plane + bound Z
 * blocks); destroyed before its runtime. */
struct RuntimeBuffers
{
    wl::CilksortBuffers sort;
    std::unique_ptr<PartedVec<double>> ha, hb;
    BlockedZMatrix<double> cz;

    RuntimeBuffers(Runtime &rt, Inputs &in, const Sizes &sz, Report *r)
        : sort(rt, sz.sort.n), cz(sz.mmN, sz.mmBlock)
    {
        const auto granule = static_cast<std::size_t>(sz.heat.ny);
        {
            ScopedSpan s("mem", "PartedVec build", 0, 2 * sz.cells());
            const int64_t t0 = nowNs();
            ha = std::make_unique<PartedVec<double>>(rt, sz.cells(), granule);
            hb = std::make_unique<PartedVec<double>>(rt, sz.cells(), granule);
            if (r != nullptr)
                r->set("mem.parted_build_ms", secondsSince(t0) * 1e3, "ms",
                       0,
                       "two heat grids, "
                           + std::to_string(2 * sz.cells() * sizeof(double))
                           + " bytes");
        }
        ScopedSpan s("layout", "bindBlocksToSockets", 0, 3);
        in.az.bindBlocksToSockets(rt.arena(), rt.numPlaces());
        in.bz.bindBlocksToSockets(rt.arena(), rt.numPlaces());
        cz.bindBlocksToSockets(rt.arena(), rt.numPlaces());
    }
};

/** Serial-phase buffers (no runtime) and the reference outputs. */
struct SerialState
{
    std::vector<int64_t> data, tmp;
    std::vector<double> ha, hb;
    BlockedZMatrix<double> cz;
    std::vector<double> refA, refB; ///< heat grids after the sweep
    std::vector<double> refC;       ///< matmul-z serial elision, Z order
    bool haveRef = false;

    explicit SerialState(const Sizes &sz)
        : data(static_cast<std::size_t>(sz.sort.n)), tmp(data.size()),
          ha(sz.cells()), hb(sz.cells()), cz(sz.mmN, sz.mmBlock)
    {}
};

bool
sortedWithSum(const int64_t *v, int64_t n, uint64_t expect_sum)
{
    for (int64_t i = 1; i < n; ++i)
        if (v[i - 1] > v[i])
            return false;
    return multisetSum(v, n) == expect_sum;
}

void
loadGrid(PartedVec<double> &pv, const std::vector<double> &src)
{
    for (int s = 0; s < pv.numShards(); ++s)
        std::memcpy(pv.shardData(s), src.data() + pv.shardBegin(s),
                    pv.shardSize(s) * sizeof(double));
}

bool
gridEquals(const PartedVec<double> &pv, const std::vector<double> &ref)
{
    for (int s = 0; s < pv.numShards(); ++s)
        if (std::memcmp(pv.shardData(s), ref.data() + pv.shardBegin(s),
                        pv.shardSize(s) * sizeof(double))
            != 0)
            return false;
    return true;
}

void
zero(BlockedZMatrix<double> &m)
{
    std::fill(m.data(), m.data() + m.bytes() / sizeof(double), 0.0);
}

/** One timed pass of kernel @p k on @p rt; checks the output. */
double
parallelPass(Kernel k, Runtime &rt, RuntimeBuffers &buf, Inputs &in,
             const SerialState &ser, const Sizes &sz, uint64_t rep,
             JobSamples *jobs, Report *r)
{
    int64_t t0 = 0, t1 = 0;
    bool ok = false;
    switch (k) {
      case kCilksort: {
        std::memcpy(buf.sort.data, in.keys.data(),
                    in.keys.size() * sizeof(int64_t));
        {
            ScopedSpan s("workloads", "cilksortParallel", rep);
            t0 = nowNs();
            wl::cilksortParallel(rt, buf.sort, sz.sort, true);
            t1 = nowNs();
        }
        ok = sortedWithSum(buf.sort.data, sz.sort.n, in.keysSum);
        break;
      }
      case kHeat: {
        loadGrid(*buf.ha, in.grid);
        loadGrid(*buf.hb, in.grid);
        {
            ScopedSpan s("workloads", "heatParallel", rep);
            t0 = nowNs();
            wl::heatParallel(rt, *buf.ha, *buf.hb, sz.heat);
            t1 = nowNs();
        }
        ok = r == nullptr
             || (gridEquals(*buf.ha, ser.refA)
                 && gridEquals(*buf.hb, ser.refB));
        break;
      }
      case kMatmul: {
        zero(buf.cz);
        const uint32_t s = sz.mmN / sz.mmBlock;
        ScopedSpan span("workloads", "matmulZ", rep);
        t0 = nowNs();
        const RootRun run = runRootJob(
            rt, [&] { matmulZ(in.az, in.bz, buf.cz, 0, 0, 0, s, true); },
            rep, jobs);
        t1 = nowNs();
        ok = run.done
             && (r == nullptr
                 || std::memcmp(buf.cz.data(), ser.refC.data(),
                                buf.cz.bytes())
                        == 0);
        break;
      }
      default:
        break;
    }
    if (r != nullptr)
        r->op(ok, kKernelNames[k]);
    return static_cast<double>(t1 - t0) * 1e-9;
}

double
serialPass(Kernel k, SerialState &ser, Inputs &in, const Sizes &sz,
           uint64_t rep, Report &r)
{
    int64_t t0 = 0, t1 = 0;
    bool ok = false;
    switch (k) {
      case kCilksort: {
        std::memcpy(ser.data.data(), in.keys.data(),
                    in.keys.size() * sizeof(int64_t));
        ScopedSpan s("workloads", "cilksortSerial", rep);
        t0 = nowNs();
        wl::cilksortSerial(ser.data.data(), sz.sort.n, ser.tmp.data(),
                           sz.sort);
        t1 = nowNs();
        ok = sortedWithSum(ser.data.data(), sz.sort.n, in.keysSum);
        break;
      }
      case kHeat: {
        ser.ha = in.grid;
        ser.hb = in.grid;
        {
            ScopedSpan s("workloads", "heatSerial", rep);
            t0 = nowNs();
            wl::heatSerial(ser.ha.data(), ser.hb.data(), sz.heat);
            t1 = nowNs();
        }
        if (!ser.haveRef) {
            ser.refA = ser.ha;
            ser.refB = ser.hb;
        }
        ok = ser.ha == ser.refA && ser.hb == ser.refB;
        break;
      }
      case kMatmul: {
        zero(ser.cz);
        {
            ScopedSpan s("workloads", "matmulZ serial", rep);
            t0 = nowNs();
            matmulZ(in.az, in.bz, ser.cz, 0, 0, 0, sz.mmN / sz.mmBlock,
                    false);
            t1 = nowNs();
        }
        const double *c = ser.cz.data();
        const std::size_t n = ser.cz.bytes() / sizeof(double);
        if (!ser.haveRef)
            ser.refC.assign(c, c + n);
        ok = std::memcmp(c, ser.refC.data(), ser.cz.bytes()) == 0;
        break;
      }
      default:
        break;
    }
    r.op(ok, kKernelNames[k]);
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** The serial elision against the plain row-major matmulSerial, within
 * 1e-9 relative to the largest |C| entry. */
bool
matmulMatchesRowMajor(const Inputs &in, const SerialState &ser,
                      const Sizes &sz)
{
    const std::size_t n = static_cast<std::size_t>(sz.mmN) * sz.mmN;
    std::vector<double> c(n, 0.0), cz(n);
    wl::matmulSerial(in.mmA.data(), in.mmB.data(), c.data(), sz.mmN);
    BlockedZMatrix<double> tmp(sz.mmN, sz.mmBlock);
    std::copy(ser.refC.begin(), ser.refC.end(), tmp.data());
    tmp.toRowMajor(cz.data());
    double scale = 0.0, err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        scale = std::max(scale, std::abs(c[i]));
        err = std::max(err, std::abs(c[i] - cz[i]));
    }
    return err <= 1e-9 * std::max(1.0, scale);
}

} // namespace

void
runNumaKernels(const RunArgs &a, Report &r)
{
    const Sizes sz(a.small);
    const int p = a.cores;
    const double budget = a.seconds;
    const std::size_t mm_bytes =
        static_cast<std::size_t>(sz.mmN) * sz.mmN * sizeof(double);
    r.stamp("input", "cilksort " + std::to_string(sz.sort.n) + " keys, heat "
                         + std::to_string(sz.heat.nx) + "x"
                         + std::to_string(sz.heat.ny) + "x"
                         + std::to_string(sz.heat.steps) + ", matmul-z "
                         + std::to_string(sz.mmN) + " block "
                         + std::to_string(sz.mmBlock));
    r.stamp("working_set_bytes",
            "cilksort "
                + std::to_string(2 * sz.sort.n * sizeof(int64_t)) + ", heat "
                + std::to_string(2 * sz.cells() * sizeof(double))
                + ", matmul-z " + std::to_string(3 * mm_bytes));

    SerialState ser(sz);
    std::unique_ptr<Inputs> in;
    std::unique_ptr<Runtime> rt;
    std::unique_ptr<RuntimeBuffers> buf;
    auto release = [&] {
        buf.reset();
        rt.reset();
    };
    uint64_t rep = 0;
    timedSetups(r, 5, [&] {
        release();
        in.reset();
        in = std::make_unique<Inputs>(sz, a.seed);
        rt = makeRuntime(p, 2);
        buf = std::make_unique<RuntimeBuffers>(*rt, *in, sz, &r);
        for (int k = 0; k < kNumKernels; ++k)
            parallelPass(static_cast<Kernel>(k), *rt, *buf, *in, ser, sz, 0,
                         nullptr, nullptr);
    });

    // Reference round: the serial elision's heat grids and matmul-z
    // product, which every later pass must reproduce bit for bit.
    for (int k = 0; k < kNumKernels; ++k)
        serialPass(static_cast<Kernel>(k), ser, *in, sz, ++rep, r);
    ser.haveRef = true;
    r.op(matmulMatchesRowMajor(*in, ser, sz), "matmul-z vs matmulSerial");

    // T_P: rounds of the three kernels on P workers over 2 places, hints
    // on. Each kernel's pass is paired with its serial elision run just
    // before it on every core; tp_over_ts is the median round ratio. The
    // stats cover the P-worker passes only.
    JobSamples jobs;
    numaws::RuntimeStats stp;
    std::vector<double> rounds, tp_ratios;
    std::array<std::vector<double>, kNumKernels> tp;
    const int64_t tp0 = nowNs();
    for (int i = 0; i < 3 || secondsSince(tp0) < 0.55 * budget; ++i) {
        double round_s = 0.0, round_p = 0.0;
        for (int k = 0; k < kNumKernels; ++k) {
            const auto kk = static_cast<Kernel>(k);
            round_s += serialOnCores(0, p, p, [&] {
                return serialPass(kk, ser, *in, sz, ++rep, r);
            });
            rt->resetStats();
            const double s =
                parallelPass(kk, *rt, *buf, *in, ser, sz, ++rep, &jobs, &r);
            addStats(stp, rt->stats());
            tp[k].push_back(s);
            round_p += s;
        }
        rounds.push_back(round_p);
        tp_ratios.push_back(round_p / round_s);
    }
    release();

    // T_S and T_1 in rounds on one core: the serial elision runs inside a
    // job and the 1-worker passes after or before it, all on the one
    // worker, pinned to the round's core (rotating), so host noise that
    // comes and goes hits both alike.
    rt = makeRuntime(1, 1);
    buf = std::make_unique<RuntimeBuffers>(*rt, *in, sz, nullptr);
    for (int k = 0; k < kNumKernels; ++k)
        parallelPass(static_cast<Kernel>(k), *rt, *buf, *in, ser, sz, 0,
                     nullptr, nullptr);
    std::array<std::vector<double>, kNumKernels> ts, t1;
    std::vector<double> ratios;
    const int64_t t0 = nowNs();
    for (int i = 0; i < 3 || secondsSince(t0) < 0.4 * budget; ++i) {
        rt->run([i, p] { pinCurrentThread(i, p); });
        double round_s = 0.0, round_1 = 0.0;
        for (int k = 0; k < kNumKernels; ++k) {
            const auto kk = static_cast<Kernel>(k);
            auto serial = [&] {
                double s_ser = 0.0;
                rt->run([&] {
                    s_ser = serialPass(kk, ser, *in, sz, ++rep, r);
                });
                return s_ser;
            };
            auto one = [&] {
                return parallelPass(kk, *rt, *buf, *in, ser, sz, ++rep,
                                    nullptr, &r);
            };
            double s_ser = 0.0, s_one = 0.0;
            if (i % 2 == 0) {
                s_ser = serial();
                s_one = one();
            } else {
                s_one = one();
                s_ser = serial();
            }
            ts[k].push_back(s_ser);
            t1[k].push_back(s_one);
            round_s += s_ser;
            round_1 += s_one;
        }
        ratios.push_back(round_1 / round_s);
    }
    release();

    double ts_sum = 0.0, t1_sum = 0.0, tp_sum = 0.0;
    for (int k = 0; k < kNumKernels; ++k) {
        const std::string key = std::string("workloads.") + kKernelNames[k];
        const double kts = median(ts[k]), kt1 = median(t1[k]),
                     ktp = median(tp[k]);
        r.set(key + ".ts_s", kts, "s", static_cast<int64_t>(ts[k].size()));
        r.set(key + ".t1_s", kt1, "s", static_cast<int64_t>(t1[k].size()));
        r.set(key + ".tp_s", ktp, "s", static_cast<int64_t>(tp[k].size()));
        ts_sum += kts;
        t1_sum += kt1;
        tp_sum += ktp;
    }
    const auto n_ts = static_cast<int64_t>(ts[0].size());
    r.set("ts_s", ts_sum, "s", n_ts, "sum of per-kernel medians");
    r.set("t1_over_ts", median(ratios), "ratio",
          static_cast<int64_t>(ratios.size()), "median of paired rounds");
    r.set("tp_s", tp_sum, "s", static_cast<int64_t>(tp[0].size()),
          "P workers, 2 places, hints on");
    r.set("tp_over_ts", median(tp_ratios), "ratio",
          static_cast<int64_t>(tp_ratios.size()),
          "median of paired rounds, P workers / serial elision");
    reportJobLatency(r, summarize(rounds), 1e6,
                     "one round of the 3 kernels at P");

    const double passes = static_cast<double>(rounds.size());
    layerStats(r, stp, passes, passes * kNumKernels);
    jobs.report(r);
    const double wp = stp.time.seconds(numaws::TimeSplit::Work) / passes;
    r.set("runtime.work_inflation", wp / t1_sum, "ratio", 0,
          "summed Work bucket per round at P over the T1 round");
}

} // namespace perfbench
