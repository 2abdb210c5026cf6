// Package all links every experiment scenario into the importing binary.
// Each domain package registers its scenarios in init(), so a blank import
// of this package is how cmd/reportgen (and anything else that wants the
// full registry) pulls in E1–E22 plus the auxiliary scenarios.
package all

import (
	_ "repro/internal/bgpsim"
	_ "repro/internal/biblio"
	_ "repro/internal/cn"
	_ "repro/internal/diary"
	_ "repro/internal/ethno"
	_ "repro/internal/focusgroup"
	_ "repro/internal/ixp"
	_ "repro/internal/par"
	_ "repro/internal/positionality"
	_ "repro/internal/qualcode"
	_ "repro/internal/standards"
	_ "repro/internal/survey"
	_ "repro/internal/timeline"
)
