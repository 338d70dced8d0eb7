package netem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// soakTimeScale compresses emulated seconds into real time for conn tests.
const soakTimeScale = 400

func TestConnRoundTrip(t *testing.T) {
	// A payload spanning several 64-packet chunks, read 7 bytes at a time,
	// arrives intact: reads straddle packet and chunk boundaries alike.
	p := mustProfile(t, "stable")
	client, server, err := Pipe(p, 11, soakTimeScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 5*64*p.MTU()+123)
	rand.New(rand.NewSource(7)).Read(payload)
	werr := make(chan error, 1)
	go func() {
		_, err := server.Write(payload)
		werr <- err
	}()
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 7)
	for len(got) < len(payload) {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("client read at byte %d: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-werr; err != nil {
		t.Fatalf("server write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestConnDelaysReflectLink(t *testing.T) {
	// One Write of a 64-packet run over 40ms-RTT stable at timeScale 1: no
	// Read may return a byte before its packet is due — packet k after the
	// ~20ms one-way propagation plus the serialization of packets 0..k at
	// 40 Mbps, so the first byte after ~20ms and the last after ~39ms.
	p := mustProfile(t, "stable")
	client, server, err := Pipe(p, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()
	params := p.Phases[0].Params
	mtu := p.MTU()
	payload := make([]byte, 64*mtu)
	start := time.Now()
	if _, err := server.Write(payload); err != nil {
		t.Fatal(err)
	}
	const slack = 100 * time.Microsecond
	dueAt := func(end int) time.Duration {
		// The packet holding byte end-1 finishes serializing once every
		// byte of it and of the packets ahead of it has left.
		sent := min(((end-1)/mtu+1)*mtu, len(payload))
		sec := params.RTTSec/2 + float64(sent*8)/params.CapacityBps
		return time.Duration(sec * float64(time.Second))
	}
	buf := make([]byte, len(payload))
	for got := 0; got < len(payload); {
		n, err := client.Read(buf[got:])
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		got += n
		if due := dueAt(got); el < due-slack {
			t.Fatalf("byte %d arrived after %v, before its packet was due at %v", got-1, el, due)
		}
	}
}

func TestConnInFlightBound(t *testing.T) {
	// With no reader, a writer can queue 256 × MTU bytes, then blocks until
	// Close wakes it.
	p := mustProfile(t, "ideal")
	client, server, err := Pipe(p, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	window := 256 * p.MTU()
	done := make(chan error, 1)
	go func() {
		_, err := server.Write(make([]byte, window))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("writer blocked before %d bytes were in flight", window)
	}
	go func() {
		_, err := server.Write([]byte{1})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write beyond %d in-flight bytes returned without a reader: %v", window, err)
	case <-time.After(50 * time.Millisecond):
	}
	server.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("blocked write after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the writer")
	}
}

func TestConnCloseSemantics(t *testing.T) {
	client, server, err := Pipe(mustProfile(t, "ideal"), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	server.Close()
	// Reads drain in-flight data, then hit EOF.
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("read after peer close: %v", err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q", got)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to closed peer: %v", err)
	}
	client.Close()
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after local close: %v", err)
	}
}

func TestConnReadDeadline(t *testing.T) {
	client, server, err := Pipe(mustProfile(t, "ideal"), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, rerr := client.Read(make([]byte, 1))
	if !errors.Is(rerr, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline: %v", rerr)
	}
	// Clearing the deadline re-arms the conn.
	client.SetReadDeadline(time.Time{})
	go server.Write([]byte("y"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestListenerDialAccept(t *testing.T) {
	l, err := Listen(mustProfile(t, "ideal"), 9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		done <- err
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
}

// TestNetemSoak runs a real HTTP client/server pair over the bufferbloat
// profile under the race detector: concurrent clients, keep-alive reuse,
// and a goroutine-leak check after drain. CI runs it with -race.
func TestNetemSoak(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	l, err := Listen(mustProfile(t, "bufferbloat"), 77, soakTimeScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 48<<10)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.Write(payload)
	})}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(l)
	}()

	transport := &http.Transport{
		DialContext: func(context.Context, string, string) (net.Conn, error) { return l.Dial() },
	}
	httpc := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	const clients, reqs = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				resp, err := httpc.Get("http://netem/seg")
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
					errs <- fmt.Errorf("payload mismatch: %d bytes", len(body))
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
	<-serveDone

	// Goroutine-leak check: emulated conns own no background goroutines,
	// so after drain the count must return to near baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
