// Package all links every self-registering package into a binary:
// importing it for side effects makes the full protocol registry (amnesiac,
// classic, multiflood, faulty) and the non-sync execution-model families
// (adversaries, schedules) addressable by spec string through the sim
// façade. The graph and analysis registries need no import: internal/sim
// already links them.
//
//	import _ "amnesiacflood/internal/registry/all"
package all

import (
	_ "amnesiacflood/internal/async"
	_ "amnesiacflood/internal/classic"
	_ "amnesiacflood/internal/core"
	_ "amnesiacflood/internal/dynamic"
	_ "amnesiacflood/internal/faults"
	_ "amnesiacflood/internal/multiflood"
)
