// Fixture (lexed as src/core/good.h): the canonical guard.
#ifndef MINIRAID_CORE_GOOD_H_
#define MINIRAID_CORE_GOOD_H_
#endif  // MINIRAID_CORE_GOOD_H_
