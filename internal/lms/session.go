package lms

import (
	"time"

	"elearncloud/internal/sim"
)

// Session models one learner's working session and the unsaved work at
// stake when connectivity drops — the paper's "users may lose time, work,
// or even unsaved data" risk.
//
// Work accumulates continuously while the session is active. A cloud LMS
// autosaves over the network every autosave interval (only when the
// network is up); a desktop application saves locally regardless. The
// difference between "now" and the last successful save is what a
// disconnect destroys.
type Session struct {
	lastSave  sim.Time
	lostWork  time.Duration
	connected bool
}

// NewSession starts a session at virtual time now, in the connected
// state, with a savepoint taken at start.
func NewSession(now sim.Time) *Session {
	return &Session{lastSave: now, connected: true}
}

// LostWork returns the cumulative work destroyed by disconnects.
func (s *Session) LostWork() time.Duration { return s.lostWork }

// Autosave records a successful savepoint at time now. It returns false
// (no save) while disconnected: saving requires the network.
func (s *Session) Autosave(now sim.Time) bool {
	if !s.connected {
		return false
	}
	s.lastSave = now
	return true
}

// UnsavedWork returns the work accumulated since the last savepoint.
func (s *Session) UnsavedWork(now sim.Time) time.Duration {
	if now < s.lastSave {
		return 0
	}
	return now - s.lastSave
}

// Disconnect marks the connection lost at time now; everything since the
// last savepoint is destroyed and accumulates into LostWork.
func (s *Session) Disconnect(now sim.Time) time.Duration {
	if !s.connected {
		return 0
	}
	lost := s.UnsavedWork(now)
	s.lostWork += lost
	s.connected = false
	return lost
}

// Reconnect marks connectivity restored at now; work resumes from a fresh
// savepoint (the client reloads server state).
func (s *Session) Reconnect(now sim.Time) {
	if s.connected {
		return
	}
	s.connected = true
	s.lastSave = now
}
