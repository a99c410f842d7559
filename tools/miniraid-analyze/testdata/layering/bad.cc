// Fixture (lexed as src/replication/bad.cc): replication reaching up into
// core.
#include "core/cluster.h"
#include "msg/message.h"
