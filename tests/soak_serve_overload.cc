/**
 * @file
 * Overload soak for the multi-worker serving front end, run in the
 * TSan lane of tools/check.sh (and as a ctest integration target).
 *
 * Drives an open-loop Poisson stream at 2x the front end's
 * capacity — a regime a closed-loop generator can never reach — with
 * GCM_THREADS workers racing over the shared cache and the pinned
 * registry snapshot, while an operator thread churns activations,
 * rollbacks and a retire. Asserts the robustness acceptance criteria
 * of the admit/shed ladder:
 *
 *   - exact accounting: served + shed == offered
 *   - the ladder actually sheds (shed_rate > 0) at 2x overload
 *   - shedding preserves goodput >= 80% of capacity
 *   - every arrival gets exactly one well-formed response line
 *
 * Plain main (no gtest): exits 0 on success, 1 with a diagnostic on
 * the first violated invariant.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/frontend.hh"
#include "serve/loadgen.hh"
#include "serve/registry.hh"
#include "testing_support.hh"

using namespace gcm;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "soak_serve_overload: FAIL: %s\n",
                     what.c_str());
        ++failures;
    }
}

} // namespace

int
main()
{
    // Small trained model, published twice so the operator has a
    // version to swap to and retire.
    const auto &ctx = gcmtest::smallContext();
    std::vector<std::size_t> devices(ctx.fleet().size());
    for (std::size_t i = 0; i < devices.size(); ++i)
        devices[i] = i;
    core::SignatureCostModel::Config mcfg;
    mcfg.gbt = gcmtest::fastGbt();
    const auto model = core::SignatureCostModel::train(
        ctx.suite(), ctx.latencyMatrix(devices), mcfg);

    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    model.serialize(s1);
    model.serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    const auto v2 =
        registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> sig;
        for (const auto &name : model.signatureNames())
            sig.push_back(ctx.latencyMs(d, ctx.networkIndex(name)));
        table[ctx.fleet().devices()[d].model_name] = std::move(sig);
    }

    serve::FrontEndConfig cfg; // workers = 0: GCM_THREADS decides
    serve::ServerFrontEnd frontend(registry, std::move(table), cfg);

    serve::LoadGenConfig gen;
    gen.requests = 4000;
    gen.seed = 1234;
    gen.bulk_fraction = 0.25;
    gen.offered_qps = 2.0 * frontend.capacityQps();

    // Operator churn while the run is in flight: the pinned snapshot
    // must survive rollback + retire of the version it points at.
    std::thread operator_thread([&registry, v2] {
        for (int i = 0; i < 50; ++i) {
            registry.activate(1 + (i % 2));
            std::this_thread::yield();
        }
        registry.activate(1);
        registry.retire(v2);
    });

    std::ostringstream out;
    const auto fr = serve::runOpenLoadGen(frontend, gen, &out);
    operator_thread.join();

    std::fprintf(stderr, "%s\n", fr.summary().c_str());

    check(fr.offered == gen.requests, "offered != requests generated");
    check(fr.served() + fr.tier_shed == fr.offered,
          "served + shed != offered");
    check(fr.tier_shed > 0, "2x overload did not shed");
    check(fr.shed_rate > 0.0, "shed_rate not positive");
    check(fr.goodput_qps >= 0.8 * frontend.capacityQps(),
          "goodput fell below 80% of capacity");
    check(fr.errors == 0, "generated stream produced error responses");

    std::size_t lines = 0;
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line); ++lines)
        check(!line.empty() && line.front() == '{'
                  && line.back() == '}',
              "torn or non-JSON response line");
    check(lines == gen.requests, "response count != offered count");

    if (failures == 0)
        std::fprintf(stderr, "soak_serve_overload: OK (%zu workers)\n",
                     frontend.workers());
    return failures == 0 ? 0 : 1;
}
