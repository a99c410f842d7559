// Fixture (lexed as src/replication/suppressed.cc): a waived upward include.
#include "core/cluster.h"  // miniraid-lint: allow(layering)
