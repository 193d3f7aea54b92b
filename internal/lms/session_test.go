package lms

import (
	"testing"
	"time"
)

func TestSessionAutosaveAndLostWork(t *testing.T) {
	s := NewSession(1, 0)
	if !s.connected {
		t.Fatal("new session must be connected")
	}
	if !s.Autosave(10 * time.Minute) {
		t.Fatal("autosave failed while connected")
	}
	// Disconnect 7 minutes after the save: 7 minutes lost.
	lost := s.Disconnect(17 * time.Minute)
	if lost != 7*time.Minute {
		t.Fatalf("lost = %v, want 7m", lost)
	}
	if s.LostWork() != 7*time.Minute {
		t.Fatalf("LostWork = %v", s.LostWork())
	}
}

func TestSessionAutosaveWhileDisconnectedFails(t *testing.T) {
	s := NewSession(1, 0)
	s.Disconnect(time.Minute)
	if s.Autosave(2 * time.Minute) {
		t.Fatal("autosave succeeded while disconnected")
	}
}

func TestSessionReconnectResetsSavepoint(t *testing.T) {
	s := NewSession(1, 0)
	s.Disconnect(10 * time.Minute) // loses 10m
	s.Reconnect(12 * time.Minute)
	if !s.connected {
		t.Fatal("not reconnected")
	}
	// Unsaved work counts from the reconnect, not from session start.
	if got := s.UnsavedWork(15 * time.Minute); got != 3*time.Minute {
		t.Fatalf("UnsavedWork = %v, want 3m", got)
	}
	// A second disconnect loses only post-reconnect work.
	if lost := s.Disconnect(15 * time.Minute); lost != 3*time.Minute {
		t.Fatalf("second lost = %v, want 3m", lost)
	}
	if s.LostWork() != 13*time.Minute {
		t.Fatalf("cumulative LostWork = %v, want 13m", s.LostWork())
	}
}

func TestSessionDoubleTransitionsAreNoOps(t *testing.T) {
	s := NewSession(1, 0)
	s.Disconnect(time.Minute)
	if lost := s.Disconnect(2 * time.Minute); lost != 0 {
		t.Fatalf("double disconnect lost %v", lost)
	}
	s.Reconnect(3 * time.Minute)
	s.Reconnect(4 * time.Minute) // no-op
	if got := s.UnsavedWork(5 * time.Minute); got != 2*time.Minute {
		t.Fatalf("UnsavedWork = %v, want 2m (from first reconnect)", got)
	}
}

func TestSessionUnsavedWorkNeverNegative(t *testing.T) {
	s := NewSession(1, 10*time.Minute)
	if got := s.UnsavedWork(5 * time.Minute); got != 0 {
		t.Fatalf("UnsavedWork before start = %v", got)
	}
}
