package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// memFS is a store.FS held in memory.  fleet-units keeps its stores in
// one, so the store code runs in full — entry encoding, keys, atomic
// publish, job-record checkpoints, replay reads — but no pass creates
// and renames thousands of files on the host's disk.  On a 2-vCPU VM
// with an ext4 disk those syscalls took about 0.6 ms a put, over half
// of the cold job's time, and the cold job's time then moved between
// runs by up to 2x with the disk rather than with the code.
// campaign-paper keeps its store on disk.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	temps int
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string][]byte), dirs: make(map[string]bool)}
}

func pathErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }

// MkdirAll implements store.FS.
func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); ; p = filepath.Dir(p) {
		if _, ok := m.files[p]; ok {
			return pathErr("mkdir", p, fs.ErrExist)
		}
		m.dirs[p] = true
		if parent := filepath.Dir(p); parent == p {
			return nil
		}
	}
}

// CreateTemp implements store.FS.  The file is visible under its name
// as soon as it is created, like a real one, and fills on Close.
func (m *memFS) CreateTemp(dir, pattern string) (store.File, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, pathErr("createtemp", dir, fs.ErrNotExist)
	}
	m.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", fmt.Sprint(m.temps), 1))
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

// ReadFile implements store.FS.
func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return bytes.Clone(data), nil
}

// Rename implements store.FS.
func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

// Link implements store.FS.
func (m *memFS) Link(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return pathErr("link", oldpath, fs.ErrNotExist)
	}
	if _, ok := m.files[newpath]; ok {
		return pathErr("link", newpath, fs.ErrExist)
	}
	m.files[newpath] = data
	return nil
}

// Remove implements store.FS.
func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// ReadDir implements store.FS: the files directly in name, in name
// order.
func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, data := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(data))}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements store.FS.
func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if data, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// memFile buffers a temporary file's writes until Close.
type memFile struct {
	fs   *memFS
	name string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *memFile) Name() string                { return f.name }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, ok := f.fs.files[f.name]; !ok {
		return pathErr("close", f.name, fs.ErrNotExist)
	}
	f.fs.files[f.name] = f.buf.Bytes()
	return nil
}

// memInfo describes a memFS file or directory.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
