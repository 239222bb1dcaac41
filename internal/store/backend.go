package store

import (
	"errors"

	"icrowd/internal/task"
)

// Backend is one durable event store: the unit a single project's history
// lives in. The platform server binds one Backend per project and appends
// every assignment-relevant event to it; recovery reads the history back
// through Open (RecoverInfo.Events) and feeds it to Replay. The interface
// exists so tests can plug in a failing fake; the only implementation is
// the CRC-framed Log.
//
// Contracts every implementation must keep:
//
//   - Append stamps events with a contiguous 1-based sequence and makes
//     them durable under the backend's configured fsync policy before
//     returning. A failed Append leaves the store exactly as it was.
//   - Healthy reports lost durability (the most recent append or fsync
//     failed) until a later append succeeds.
//   - Close is idempotent.
type Backend interface {
	// Append stamps e with the next sequence number, durably records it,
	// and returns the stamped event.
	Append(e Event) (Event, error)
	// LastSeq returns the sequence number of the most recent event (0 when
	// the store is empty).
	LastSeq() int64
	// Healthy reports the backend's durability health (see Log.Healthy).
	Healthy() error
	// Close releases the backend's resources. Idempotent.
	Close() error
}

// config is the resolved option set shared by Open and OpenProjects.
type config struct {
	syncEvery     int
	snapshotEvery int
}

// Option configures Open and OpenProjects.
type Option func(*config)

// WithFsync controls fsync frequency: 0 never fsyncs (the OS decides),
// 1 fsyncs after every append, N fsyncs after every N appends.
func WithFsync(every int) Option {
	return func(c *config) { c.syncEvery = every }
}

// WithSnapshotEvery enables snapshot+compaction every n appends: the full
// history is written to the log's snapshot file (path + ".snap") and the
// live log is truncated.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// AppendAssign records a successful task assignment on any backend.
func AppendAssign(b Backend, worker string, taskID int) error {
	_, err := b.Append(Event{Kind: EventAssign, Worker: worker, Task: taskID})
	return err
}

// AppendSubmit records a submitted answer on any backend.
func AppendSubmit(b Backend, worker string, taskID int, ans task.Answer) error {
	if ans != task.Yes && ans != task.No {
		return errors.New("store: answer must be YES or NO")
	}
	_, err := b.Append(Event{Kind: EventSubmit, Worker: worker, Task: taskID, Answer: ans.String()})
	return err
}

// AppendInactive records a worker leaving on any backend.
func AppendInactive(b Backend, worker string) error {
	_, err := b.Append(Event{Kind: EventInactive, Worker: worker})
	return err
}
