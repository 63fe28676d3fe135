package kvstore

import (
	"fmt"
	"testing"
)

func BenchmarkStoreSet(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set("key", "value")
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore()
	s.Set("key", "value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("key"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreIncr(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Incr("ctr"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRoundTrip measures one SET+GET over loopback TCP — the
// metadata cost per checkpoint in a multi-process deployment.
func BenchmarkClientRoundTrip(b *testing.B) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := fmt.Sprintf(`{"name":"tc1","version":%d,"location":"gpu"}`, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("viper/meta/tc1", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get("viper/meta/tc1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientSetStaging measures one 16 MiB SET over loopback TCP —
// the KV staging copy every TCP publish writes — through both client
// forms: the []byte one the producer uses, and the string one.
func BenchmarkClientSetStaging(b *testing.B) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 16<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	str := string(payload)
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.SetBytes("viper/staging/m/1", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		b.SetBytes(int64(len(str)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Set("viper/staging/m/1", str); err != nil {
				b.Fatal(err)
			}
		}
	})
}
