package journal

import (
	"time"
)

// Start returns the journal's header start time (zero when the stream had
// no header).
func (r *Reader) Start() time.Time { return r.start }

// Start returns the journal's anchor time (Record.T offsets are relative
// to it).
func (w *Writer) Start() time.Time { return w.start }
