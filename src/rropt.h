// Umbrella header for the rropt toolkit.
//
// Pulls in the full public API: wire formats, topology generation, policy
// routing, the network simulator, the prober, and the measurement/analysis
// layers. Individual components can of course be included directly.
#pragma once

#include "analysis/cdf.h"
#include "data/dataset.h"
#include "data/jsonl.h"
#include "analysis/series.h"
#include "analysis/table.h"
#include "measure/as_stamping.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/cloud.h"
#include "measure/midar.h"
#include "measure/ratelimit.h"
#include "measure/reachability.h"
#include "measure/reclassify.h"
#include "measure/testbed.h"
#include "measure/ttl_study.h"
#include "netbase/address.h"
#include "netbase/checksum.h"
#include "netbase/lpm_trie.h"
#include "netbase/prefix.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "probe/prober.h"
#include "revtr/reverse_traceroute.h"
#include "routing/oracle.h"
#include "routing/stitcher.h"
#include "sim/behavior.h"
#include "sim/network.h"
#include "topology/generator.h"
#include "util/flags.h"
#include "util/rng.h"
