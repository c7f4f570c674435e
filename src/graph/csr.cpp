#include "graph/csr.hpp"

#include <stdexcept>
#include <utility>

namespace cxlgraph::graph {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// One FNV-1a-style multiply-xor step.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001b3ULL;
}

/// One pass over shape and content: negligible next to building the
/// graph, and any structural change alters the result.
std::uint64_t content_hash(const std::vector<EdgeIndex>& offsets,
                           const std::vector<VertexId>& edges,
                           const std::vector<Weight>& weights) {
  std::uint64_t h = kFnvBasis;
  h = mix(h, offsets.empty() ? 0 : offsets.size() - 1);
  h = mix(h, edges.size());
  h = mix(h, weights.empty() ? 0 : 1);
  for (const EdgeIndex o : offsets) h = mix(h, o);
  for (const VertexId e : edges) h = mix(h, e);
  for (const Weight w : weights) h = mix(h, w);
  return h;
}

/// content_hash of the empty graph, usable during static initialization.
constexpr std::uint64_t kEmptyFingerprint = mix(mix(mix(kFnvBasis, 0), 0), 0);

}  // namespace

CsrGraph::CsrGraph() : fingerprint_(kEmptyFingerprint) {}

CsrGraph::CsrGraph(std::vector<EdgeIndex> offsets,
                   std::vector<VertexId> edges, std::vector<Weight> weights)
    : offsets_(std::move(offsets)),
      edges_(std::move(edges)),
      weights_(std::move(weights)) {
  const std::string problem = validate();
  if (!problem.empty()) {
    throw std::invalid_argument("CsrGraph: " + problem);
  }
  fingerprint_ = content_hash(offsets_, edges_, weights_);
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : offsets_(std::exchange(other.offsets_, {})),
      edges_(std::exchange(other.edges_, {})),
      weights_(std::exchange(other.weights_, {})),
      fingerprint_(std::exchange(other.fingerprint_, kEmptyFingerprint)) {}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  offsets_ = std::exchange(other.offsets_, {});
  edges_ = std::exchange(other.edges_, {});
  weights_ = std::exchange(other.weights_, {});
  fingerprint_ = std::exchange(other.fingerprint_, kEmptyFingerprint);
  return *this;
}

std::string CsrGraph::validate() const {
  if (offsets_.empty()) {
    return edges_.empty() ? std::string{} : "edges without offsets";
  }
  if (offsets_.front() != 0) return "offsets[0] != 0";
  if (offsets_.back() != edges_.size()) {
    return "offsets.back() != edges.size()";
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      return "offsets decrease at index " + std::to_string(i);
    }
  }
  const std::uint64_t n = num_vertices();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i] >= n) {
      return "edge target " + std::to_string(edges_[i]) +
             " out of range at position " + std::to_string(i);
    }
  }
  if (!weights_.empty() && weights_.size() != edges_.size()) {
    return "weights size mismatch";
  }
  return {};
}

DegreeStats degree_stats(const CsrGraph& graph) {
  DegreeStats s;
  s.num_vertices = graph.num_vertices();
  s.num_edges = graph.num_edges();
  s.edge_list_bytes = graph.edge_list_bytes();
  std::uint64_t nonzero = 0;
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    const std::uint64_t d = graph.degree(v);
    if (d == 0) {
      ++s.zero_degree_vertices;
    } else {
      ++nonzero;
    }
    if (d > s.max_degree) s.max_degree = d;
  }
  if (nonzero > 0) {
    s.avg_degree_nonzero =
        static_cast<double>(s.num_edges) / static_cast<double>(nonzero);
    s.avg_sublist_bytes = s.avg_degree_nonzero * kBytesPerEdge;
  }
  return s;
}

}  // namespace cxlgraph::graph
