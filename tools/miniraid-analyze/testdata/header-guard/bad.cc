// Fixture (lexed as src/core/bad.h): a guard not derived from the path.
#ifndef WRONG_H_
#define WRONG_H_
#endif  // WRONG_H_
