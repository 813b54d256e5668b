/**
 * @file
 * The (network ‖ device) rows every signature-style model trains on.
 *
 * A cost-model row is a network's encoding followed by a device's
 * representation (anchor-normalized signature latencies, or static
 * hardware features). Each network and each device repeats across
 * many rows, so the rows are assembled as a two-block
 * ml::BlockedDataset: one table row per network, one per device, and
 * a (network, device) key pair per training row. SignatureCostModel,
 * EvaluationHarness and CollaborativeSimulation all build their
 * training sets here.
 */

#ifndef GCM_CORE_TRAINING_SET_HH
#define GCM_CORE_TRAINING_SET_HH

#include <cstddef>
#include <vector>

#include "ml/dataset.hh"
#include "ml/flat_ensemble.hh"

namespace gcm::core
{

/**
 * A device's anchor: the geometric mean of its signature latencies,
 * the scale that anchor normalization divides features and targets
 * by. Throws GcmError on a non-positive latency.
 */
double signatureAnchor(const std::vector<double> &signature_latencies_ms);

/** One training row: table indices of its network and device. */
struct PairRow
{
    std::size_t network = 0;
    std::size_t device = 0;
    double label = 0.0;
};

/**
 * Assemble the two-block training set. networks[k] is network key
 * k's encoding and devices[k] device key k's representation; all
 * entries of one table share a width. Row i of the result is
 * networks[rows[i].network] ++ devices[rows[i].device].
 */
ml::BlockedDataset
pairDataset(const std::vector<std::vector<float>> &networks,
            const std::vector<std::vector<float>> &devices,
            const std::vector<PairRow> &rows);

/**
 * Predict every row of a pairDataset() without materializing it:
 * FlatEnsemble::predictBatchSegmented with the network block as the
 * head and the device block as the tail. Bit-identical to predicting
 * the dense rows.
 */
std::vector<double> predictPairs(const ml::FlatEnsemble &model,
                                 const ml::BlockedDataset &pairs);

} // namespace gcm::core

#endif // GCM_CORE_TRAINING_SET_HH
