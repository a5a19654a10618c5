#pragma once

// Umbrella header: the full public API of sge ("scalable graph
// exploration"), the SC'10 multicore-BFS reproduction. Include
// individual module headers instead when compile time matters.

// runtime
#include "runtime/aligned_buffer.hpp"
#include "runtime/cache_info.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/env.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/prng.hpp"
#include "runtime/stats.hpp"
#include "runtime/timer.hpp"
#include "runtime/topology.hpp"

// concurrency
#include "concurrency/cancel_token.hpp"
#include "concurrency/channel.hpp"
#include "concurrency/spin_barrier.hpp"
#include "concurrency/spsc_ring.hpp"
#include "concurrency/thread_team.hpp"
#include "concurrency/ticket_lock.hpp"

// graph
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/degree_stats.hpp"
#include "graph/edge_list.hpp"
#include "graph/gpartition.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/reorder.hpp"
#include "graph/subgraph.hpp"
#include "graph/types.hpp"
#include "graph/weighted.hpp"

// generators
#include "gen/grid.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/small_world.hpp"
#include "gen/ssca2.hpp"
#include "gen/uniform.hpp"

// core (the paper's contribution)
#include "core/bfs.hpp"
#include "core/msbfs.hpp"
#include "core/validate.hpp"

// query service (admission control, deadlines, MS-BFS batching)
#include "service/admission.hpp"
#include "service/graph_service.hpp"
#include "service/request.hpp"

// streaming extensions
#include "stream/incremental_bfs.hpp"
#include "stream/versioned_store.hpp"

// probes (Figures 2-3)
#include "memprobe/atomic_probe.hpp"
#include "memprobe/memory_probe.hpp"

// analytics
#include "analytics/astar.hpp"
#include "analytics/betweenness.hpp"
#include "analytics/closeness.hpp"
#include "analytics/connected_components.hpp"
#include "analytics/diameter.hpp"
#include "analytics/kcore.hpp"
#include "analytics/label_propagation.hpp"
#include "analytics/level_histogram.hpp"
#include "analytics/neighborhood.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/parallel_sssp.hpp"
#include "analytics/shortest_path.hpp"
#include "analytics/sssp.hpp"
#include "analytics/st_connectivity.hpp"
#include "analytics/triangles.hpp"
