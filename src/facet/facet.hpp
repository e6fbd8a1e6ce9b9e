/// \file facet.hpp
/// \brief Umbrella header: the full public API of the facet library.
///
/// facet reproduces "Rethinking NPN Classification from Face and Point
/// Characteristics of Boolean Functions" (DATE 2023). Include this header to
/// get the truth-table kernel, the signature families (cofactor, influence,
/// sensitivity, sensitivity distance), the signature-only NPN classifier of
/// the paper, every baseline classifier of its evaluation, the parallel
/// batch-classification engine that wraps them all, the persistent NPN class
/// store (build / save / load / lookup / serve), and the
/// AIG/cut-enumeration pipeline used to build benchmark function sets.

#pragma once

#include "facet/aig/aig.hpp"
#include "facet/aig/aiger_io.hpp"
#include "facet/aig/circuits.hpp"
#include "facet/aig/cut_enum.hpp"
#include "facet/aig/simulate.hpp"
#include "facet/data/dataset.hpp"
#include "facet/engine/batch_engine.hpp"
#include "facet/net/frame.hpp"
#include "facet/net/reactor.hpp"
#include "facet/net/server.hpp"
#include "facet/net/socket.hpp"
#include "facet/npn/classifier.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/enumerate.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/symmetry.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/histogram.hpp"
#include "facet/obs/registry.hpp"
#include "facet/sig/cofactor.hpp"
#include "facet/sig/influence.hpp"
#include "facet/sig/msv.hpp"
#include "facet/sig/sensitivity.hpp"
#include "facet/sig/sensitivity_distance.hpp"
#include "facet/sig/variable_signatures.hpp"
#include "facet/sig/walsh.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/gate.hpp"
#include "facet/store/hot_cache.hpp"
#include "facet/store/merge.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/serve.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/store/store_format.hpp"
#include "facet/store/store_router.hpp"
#include "facet/tt/bit_ops.hpp"
#include "facet/tt/truth_table.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"
#include "facet/util/cli.hpp"
#include "facet/util/hash.hpp"
#include "facet/util/parallel.hpp"
#include "facet/util/table.hpp"
#include "facet/util/timer.hpp"
