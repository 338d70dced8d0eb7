package netem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestListenServesHTTP runs an http.Server over Listen(ideal): concurrent
// clients with keep-alive reuse fetch a body through Dial, and once the
// server and the listener close, no goroutine is left behind.
func TestListenServesHTTP(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	l, err := Listen(mustProfile(t, "ideal"), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 48<<10)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	transport := &http.Transport{
		DialContext: func(context.Context, string, string) (net.Conn, error) { return l.Dial() },
	}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	const clients, reqs = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				resp, err := client.Get("http://pipe/seg")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body, payload) {
					errs <- fmt.Errorf("body of %d bytes, want %d", len(body), len(payload))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	l.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestListenerDialAccept: Dial hands Accept the other end of one
// connection; after Close, Accept and Dial return net.ErrClosed, and so
// does a Dial that was waiting for Accept when Close came.
func TestListenerDialAccept(t *testing.T) {
	l, err := Listen(mustProfile(t, "ideal"), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			echoed <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		echoed <- err
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("echo = %q", buf)
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	c.Close()

	pending := make(chan error, 1)
	go func() {
		_, err := l.Dial()
		pending <- err
	}()
	l.Close()
	if err := <-pending; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("pending dial at close: %v", err)
	}
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestListenRejectsShapingProfiles: the listener carries bytes unshaped,
// so it accepts only a profile whose every phase shapes nothing.
func TestListenRejectsShapingProfiles(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"ideal", true},
		{"ideal,mtu=9000", true},
		{"stable", false},
		{"bufferbloat", false},
	} {
		p, err := ParseProfile(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		l, err := Listen(p, 0, 0, nil)
		if got := err == nil; got != tc.ok {
			t.Errorf("Listen(%s): err %v, want ok %v", tc.spec, err, tc.ok)
		}
		if l != nil {
			l.Close()
		}
	}
}
