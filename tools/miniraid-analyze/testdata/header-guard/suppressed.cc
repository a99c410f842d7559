// miniraid-lint: allow(header-guard)
// Fixture (lexed as src/core/suppressed.h): a waived missing guard.
#pragma once
