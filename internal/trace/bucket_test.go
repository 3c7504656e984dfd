package trace

import (
	"context"
	"testing"
	"time"
)

func TestTokenBucketThrottles(t *testing.T) {
	tb := NewTokenBucket(100, 1) // 100/s, burst 1
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := tb.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// 1 burst token + 4 refills at 10ms each ≈ 40ms minimum.
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("5 tokens at 100/s took only %s", el)
	}
}

func TestTokenBucketCancel(t *testing.T) {
	tb := NewTokenBucket(0.1, 1) // one token per 10s
	ctx, cancel := context.WithCancel(context.Background())
	if err := tb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tb.Wait(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled wait returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled wait did not return")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb := NewTokenBucket(0, 0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := tb.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("unlimited bucket throttled: %s", el)
	}
}
