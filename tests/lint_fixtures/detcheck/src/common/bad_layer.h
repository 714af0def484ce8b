#pragma once
// mmhar_check layering fixture: common (rank 0) reaching up into
// serving (rank 6) must fail the layering rule. Never compiled.
#include "common/ok.h"
#include "serving/api.h"
