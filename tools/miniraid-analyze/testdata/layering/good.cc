// Fixture (lexed as src/replication/good.cc): own-component and downward
// includes.
#include "common/types.h"
#include "msg/message.h"
#include "replication/site.h"
