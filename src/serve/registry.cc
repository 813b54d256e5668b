#include "serve/registry.hh"

#include "obs/obs.hh"
#include "util/error.hh"

namespace gcm::serve
{

namespace
{

/**
 * serve.registry.* metrics (DESIGN.md §8: compiled in, off by
 * default, never read back into any decision). Counters track
 * operator actions; gauges mirror the registry state so a fleet
 * controller's publish/rollback churn is visible without polling.
 */
void
noteRegistryState(ModelRegistry::Version active,
                  std::size_t pinned_snapshots)
{
    obs::gaugeSet("serve.registry.active_version",
                  static_cast<double>(active));
    obs::gaugeSet("serve.registry.snapshots",
                  static_cast<double>(pinned_snapshots));
}

} // namespace

ModelSnapshot
ModelSnapshot::fromStream(std::istream &is)
{
    return fromCostModel(core::SignatureCostModel::deserialize(is));
}

ModelSnapshot
ModelSnapshot::fromCostModel(core::SignatureCostModel model)
{
    ModelSnapshot snap;
    model.compile();
    snap.cost_model_ = std::make_unique<core::SignatureCostModel>(
        std::move(model));
    return snap;
}

ModelRegistry::Version
ModelRegistry::publish(ModelSnapshot snapshot)
{
    std::lock_guard<std::mutex> lock(mu_);
    const Version v = next_++;
    snapshots_.emplace(
        v, std::make_shared<const ModelSnapshot>(std::move(snapshot)));
    previous_ = active_;
    active_ = v;
    obs::counterAdd("serve.registry.publishes");
    noteRegistryState(active_, snapshots_.size());
    return v;
}

ModelRegistry::ActiveModel
ModelRegistry::active() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ == 0)
        return {};
    return {active_, snapshots_.at(active_)};
}

ModelRegistry::Version
ModelRegistry::activeVersion() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
}

void
ModelRegistry::activate(Version version)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshots_.count(version) == 0)
        fatal("ModelRegistry::activate: unknown version ", version);
    if (version == active_)
        return;
    previous_ = active_;
    active_ = version;
    obs::counterAdd("serve.registry.activates");
    noteRegistryState(active_, snapshots_.size());
}

void
ModelRegistry::rollback()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (previous_ == 0)
        fatal("ModelRegistry::rollback: no previous version");
    std::swap(active_, previous_);
    obs::counterAdd("serve.registry.rollbacks");
    noteRegistryState(active_, snapshots_.size());
}

void
ModelRegistry::retire(Version version)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshots_.count(version) == 0)
        fatal("ModelRegistry::retire: unknown version ", version);
    if (version == active_)
        fatal("ModelRegistry::retire: version ", version,
              " is active; activate another version first");
    snapshots_.erase(version);
    // Eviction only drops the registry's reference: batches and
    // front-end runs that pinned the snapshot keep it alive through
    // their shared_ptr until they finish.
    if (version == previous_)
        previous_ = 0;
    obs::counterAdd("serve.registry.retires");
    noteRegistryState(active_, snapshots_.size());
}

std::shared_ptr<const ModelSnapshot>
ModelRegistry::snapshot(Version version) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = snapshots_.find(version);
    return it == snapshots_.end() ? nullptr : it->second;
}

std::vector<ModelRegistry::Version>
ModelRegistry::versions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Version> out;
    out.reserve(snapshots_.size());
    for (const auto &[v, snap] : snapshots_)
        out.push_back(v);
    return out;
}

} // namespace gcm::serve
