/**
 * @file
 * Text serialization of DNN graphs ("gcm-graph v1").
 *
 * One node per line in topological order:
 *
 *   gcm-graph v1
 *   name <graph-name>
 *   precision fp32|int8
 *   nodes <count>
 *   node <id> <kind> k=<kernel> s=<stride> p=<pad> oc=<out_c>
 *        g=<groups> act=<fused> in=<id,id,...> shape=<n,h,w,c>
 *   ...
 *
 * The format round-trips exactly (shapes are stored, then re-checked
 * against the stored structure on load by the full graph verifier).
 *
 * Loading is untrusted-input parsing: graphFromText() makes one pass
 * over the text with std::from_chars and no per-line streams, caps the
 * node count, checks ids, inputs, operators and the activation range
 * as it goes, and then runs verify::verifyGraphOrThrow. Every
 * malformed text raises GcmError.
 */

#ifndef GCM_DNN_SERIALIZE_HH
#define GCM_DNN_SERIALIZE_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "dnn/graph.hh"

namespace gcm::dnn
{

/** Write a graph to a stream in the gcm-graph v1 format. */
void serializeGraph(const Graph &graph, std::ostream &os);

/** Convenience: serialize to a string. */
std::string graphToText(const Graph &graph);

/** Parse a graph written by serializeGraph(). Throws GcmError. */
Graph graphFromText(std::string_view text);

/** Read the rest of `is` and parse it with graphFromText(). */
Graph deserializeGraph(std::istream &is);

} // namespace gcm::dnn

#endif // GCM_DNN_SERIALIZE_HH
