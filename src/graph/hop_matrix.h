// Cached all-pairs hop distances.
//
// The channel-reuse constraint (Section V-A, constraint 2b) queries hop
// distances on G_R for every candidate slot/offset, so distances are
// precomputed once per scheduling run.
#pragma once

#include <vector>

#include "common/error.h"
#include "graph/graph.h"

namespace wsan::graph {

class hop_matrix {
 public:
  hop_matrix() = default;
  explicit hop_matrix(const graph& g);

  int num_nodes() const { return num_nodes_; }

  /// Hop distance between u and v; k_infinite_hops when unreachable.
  int hops(node_id u, node_id v) const;

  /// Row u of the matrix: row(u)[v] == hops(u, v) for v in
  /// [0, num_nodes()). Checks u only; a caller that reads many entries
  /// checks each v itself. The matrix is symmetric (G_R is undirected),
  /// so row(u)[v] == row(v)[u].
  const int* row(node_id u) const {
    WSAN_REQUIRE(u >= 0 && u < num_nodes_, "node id out of range");
    return dist_.data() +
           static_cast<std::size_t>(u) * static_cast<std::size_t>(num_nodes_);
  }

  /// Maximum finite pairwise distance (the network diameter lambda_R used
  /// to seed rho in Algorithm 1).
  int diameter() const { return diameter_; }

 private:
  int num_nodes_ = 0;
  int diameter_ = 0;
  std::vector<int> dist_;  // dense n*n
};

}  // namespace wsan::graph
