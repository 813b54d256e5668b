/**
 * @file
 * Versioned model registry for the prediction serving layer.
 *
 * A ModelSnapshot is an immutable, fully-loaded model: once published
 * it is never mutated, so request threads can keep predicting against
 * the snapshot they pinned while an operator publishes, activates or
 * rolls back other versions concurrently. The registry hands out
 * snapshots as shared_ptr<const>, which is the whole hot-swap
 * mechanism: activation replaces which pointer active() returns;
 * in-flight batches finish on the version they started with and the
 * old snapshot is freed when its last batch drops the reference.
 *
 * A snapshot is always an end-to-end core::SignatureCostModel, the one
 * kind of model that answers (network, device) queries. Loading
 * accepts only a stream that starts with the `gcm-cost-model v1`
 * header and rejects anything else with a GcmError.
 */

#ifndef GCM_SERVE_REGISTRY_HH
#define GCM_SERVE_REGISTRY_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cost_model.hh"

namespace gcm::serve
{

/**
 * One immutable loaded model.
 *
 * Snapshot construction is where the ensemble gets compiled: both
 * factories flatten the cost model's booster into a ml::FlatEnsemble
 * (bit-identical by the ml/flat_ensemble.hh contract) before the
 * snapshot is frozen, so every published snapshot carries a ready
 * compiled engine and the serving hot path never touches the
 * node-walking training structures.
 */
class ModelSnapshot
{
  public:
    /**
     * Load a snapshot from a serialized `gcm-cost-model v1` stream.
     * Throws GcmError for any other header or malformed content. The
     * model is compiled before the snapshot is returned.
     */
    static ModelSnapshot fromStream(std::istream &is);

    /** Wrap (and compile) an already-constructed cost model. */
    static ModelSnapshot fromCostModel(core::SignatureCostModel model);

    const core::SignatureCostModel &costModel() const
    {
        return *cost_model_;
    }

  private:
    ModelSnapshot() = default;

    std::unique_ptr<const core::SignatureCostModel> cost_model_;
};

/**
 * Thread-safe registry of versioned snapshots with atomic hot-swap
 * and rollback. Versions are monotonically increasing, starting at 1;
 * version 0 means "none".
 */
class ModelRegistry
{
  public:
    using Version = std::uint64_t;

    /** The pinned (version, snapshot) pair a batch predicts against. */
    struct ActiveModel
    {
        Version version = 0;
        std::shared_ptr<const ModelSnapshot> snapshot;

        explicit operator bool() const { return snapshot != nullptr; }
    };

    /**
     * Register a snapshot and atomically make it the active version.
     * Returns the assigned version id.
     */
    Version publish(ModelSnapshot snapshot);

    /**
     * The currently active (version, snapshot) pair; {0, nullptr}
     * before the first publish. Callers pin one ActiveModel per batch
     * so every request in the batch sees one consistent model.
     */
    ActiveModel active() const;

    Version activeVersion() const;

    /** Hot-swap to a previously published version. Throws GcmError. */
    void activate(Version version);

    /**
     * Revert to the version that was active before the most recent
     * publish()/activate() swap. Throws GcmError when there is no
     * previous version to return to.
     */
    void rollback();

    /**
     * Evict a published, non-active version from the registry. Throws
     * GcmError for unknown or currently-active versions. Holders of a
     * pinned shared_ptr (in-flight batches, a front-end run) keep the
     * snapshot alive until they drop it; retire only prevents new
     * pins.
     */
    void retire(Version version);

    /** Fetch a specific version (nullptr when unknown). */
    std::shared_ptr<const ModelSnapshot> snapshot(Version version) const;

    /** All published versions, ascending. */
    std::vector<Version> versions() const;

  private:
    mutable std::mutex mu_;
    std::map<Version, std::shared_ptr<const ModelSnapshot>> snapshots_;
    Version active_ = 0;
    Version previous_ = 0;
    Version next_ = 1;
};

} // namespace gcm::serve

#endif // GCM_SERVE_REGISTRY_HH
