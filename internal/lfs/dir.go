package lfs

import (
	"slices"
	"sort"
	"strings"

	"raidii/internal/sim"
)

// DirEntry is one directory record.
type DirEntry struct {
	Name string
	Inum uint32
	Mode Mode
}

// FileInfo is the result of Stat.
type FileInfo struct {
	Name  string
	Inum  uint32
	Mode  Mode
	Size  int64
	MTime sim.Time
}

// IsDir reports whether the entry is a directory.
func (fi FileInfo) IsDir() bool { return fi.Mode == ModeDir }

// parseDir decodes directory file contents.
func parseDir(data []byte) []DirEntry {
	var out []DirEntry
	off := 0
	for off+6 <= len(data) {
		inum := le.Uint32(data[off:])
		nameLen := int(data[off+4]) | int(data[off+5])<<8
		off += 6
		if inum == 0 && nameLen == 0 {
			break // end marker
		}
		if off+nameLen > len(data) {
			break
		}
		out = append(out, DirEntry{Name: string(data[off : off+nameLen]), Inum: inum})
		off += nameLen
	}
	return out
}

// marshalDir encodes directory entries.
func marshalDir(ents []DirEntry) []byte {
	n := 0
	for _, e := range ents {
		n += 6 + len(e.Name)
	}
	buf := make([]byte, n)
	off := 0
	for _, e := range ents {
		le.PutUint32(buf[off:], e.Inum)
		buf[off+4] = byte(len(e.Name))
		buf[off+5] = byte(len(e.Name) >> 8)
		copy(buf[off+6:], e.Name)
		off += 6 + len(e.Name)
	}
	return buf
}

// dirRecord decodes the record at byte offset off of encoded directory
// contents; next is the offset of the record after it.  ok is false where
// parseDir stops: at an end marker, a truncated record or the end of data.
func dirRecord(data []byte, off int) (inum uint32, name []byte, next int, ok bool) {
	if off+6 > len(data) {
		return 0, nil, 0, false
	}
	inum = le.Uint32(data[off:])
	next = off + 6 + (int(data[off+4]) | int(data[off+5])<<8)
	if inum == 0 && next == off+6 || next > len(data) {
		return 0, nil, 0, false
	}
	return inum, data[off+6 : next], next, true
}

// findDirEntry looks name up in encoded directory contents, walking the
// records in place: it answers what a search of parseDir's result would
// without decoding an entry or allocating.  When ok, inum and off are the
// inode number and offset of name's first record; otherwise off is where
// the records stop.
func findDirEntry(data []byte, name string) (inum uint32, off int, ok bool) {
	for {
		in, n, next, more := dirRecord(data, off)
		if !more {
			return 0, off, false
		}
		if string(n) == name {
			return in, off, true
		}
		off = next
	}
}

// dirEnd returns where the records of data stop, walking from the record
// boundary off.
func dirEnd(data []byte, off int) int {
	for {
		_, _, next, more := dirRecord(data, off)
		if !more {
			return off
		}
		off = next
	}
}

// The two edits work on the encoded bytes in place and produce exactly
// marshalDir of the edited parseDir result: whatever follows the last
// record parseDir would decode is dropped.

// dirAppend adds a record for name behind the last one; from is any record
// boundary of data.  The result shares data's buffer when it has room.
func dirAppend(data []byte, from int, name string, inum uint32) []byte {
	end := dirEnd(data, from)
	data = append(data[:end], 0, 0, 0, 0, byte(len(name)), byte(len(name)>>8))
	le.PutUint32(data[end:], inum)
	return append(data, name...)
}

// dirCut removes the record at offset off.
func dirCut(data []byte, off int) []byte {
	_, _, next, _ := dirRecord(data, off)
	return data[:off+copy(data[off:], data[next:dirEnd(data, next)])]
}

// dirRecordMax is the longest encoded record.
const dirRecordMax = 6 + MaxNameLen

// dirBytes reads a directory's encoded contents into the file system's
// scratch buffer k, which the next call with the same k overwrites; the
// buffer has room behind the contents for dirAppend to add a record without
// moving them.  An operation has at most two directories in hand at once
// (Rename's two parents, Remove's parent and the subdirectory it checks).
// Caller holds fs.mu, which is what makes two buffers per FS safe.
func (fs *FS) dirBytes(p *sim.Proc, in *inode, k int) ([]byte, error) {
	if in.Mode != ModeDir {
		return nil, ErrNotDir
	}
	if need := int(in.Size) + dirRecordMax; cap(fs.dirScratch[k]) < need {
		fs.dirScratch[k] = make([]byte, 2*need) // doubling: a directory grows a record at a time
	}
	data := fs.dirScratch[k][:in.Size]
	for off := int64(0); off < in.Size; off += BlockSize {
		n := min(BlockSize, in.Size-off)
		addr, err := fs.getBlockAddr(p, in, off/BlockSize)
		if err != nil {
			return nil, err
		}
		if addr == 0 {
			clear(data[off : off+n]) // a hole reads as zeros, not as the last directory
			continue
		}
		blk, err := fs.metaView(p, addr)
		if err != nil {
			return nil, err
		}
		copy(data[off:off+n], blk)
	}
	return data, nil
}

// readDirLocked returns a directory's entries.  Caller holds fs.mu.
func (fs *FS) readDirLocked(p *sim.Proc, in *inode) ([]DirEntry, error) {
	data, err := fs.dirBytes(p, in, 0)
	if err != nil {
		return nil, err
	}
	return parseDir(data), nil
}

// writeDir replaces a directory's contents with data (encoded records,
// which may be in a dirBytes buffer).  Caller holds fs.mu.
func (fs *FS) writeDir(p *sim.Proc, in *inode, data []byte) error {
	if err := fs.freeInodeBlocks(p, in); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := fs.writeAtLocked(p, in, data, 0, nil); err != nil {
			return err
		}
	}
	in.Size = int64(len(data))
	in.MTime = int64(p.Now())
	fs.dirtyInode(in)
	return nil
}

// splitPath normalizes an absolute slash-separated path into components.
func splitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		default:
			out = append(out, c)
		}
	}
	return out
}

// namei resolves a path to its inode.  Caller holds fs.mu.
func (fs *FS) namei(p *sim.Proc, path string) (*inode, error) {
	in, err := fs.loadInode(p, RootInum)
	if err != nil {
		return nil, err
	}
	for _, comp := range splitPath(path) {
		if in.Mode != ModeDir {
			return nil, ErrNotDir
		}
		data, err := fs.dirBytes(p, in, 0)
		if err != nil {
			return nil, err
		}
		next, _, ok := findDirEntry(data, comp)
		if !ok {
			return nil, ErrNotExist
		}
		if in, err = fs.loadInode(p, next); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// nameiParent resolves the parent directory of path and returns it with the
// final component.  Caller holds fs.mu.
func (fs *FS) nameiParent(p *sim.Proc, path string) (*inode, string, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return nil, "", ErrExist // the root itself
	}
	name := comps[len(comps)-1]
	if len(name) > MaxNameLen {
		return nil, "", ErrNameTooLong
	}
	parentPath := strings.Join(comps[:len(comps)-1], "/")
	parent, err := fs.namei(p, parentPath)
	if err != nil {
		return nil, "", err
	}
	if parent.Mode != ModeDir {
		return nil, "", ErrNotDir
	}
	return parent, name, nil
}

// Create makes a new empty regular file and returns an open handle.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return nil, err
	}
	data, err := fs.dirBytes(p, parent, 0)
	if err != nil {
		return nil, err
	}
	_, end, exists := findDirEntry(data, name)
	if exists {
		return nil, ErrExist
	}
	in, err := fs.allocInode(ModeFile, p.Now())
	if err != nil {
		return nil, err
	}
	if err := fs.writeDir(p, parent, dirAppend(data, end, name, in.Inum)); err != nil {
		return nil, err
	}
	return &File{fs: fs, inum: in.Inum}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	if in.Mode == ModeDir {
		return nil, ErrIsDir
	}
	return &File{fs: fs, inum: in.Inum}, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	data, err := fs.dirBytes(p, parent, 0)
	if err != nil {
		return err
	}
	_, end, exists := findDirEntry(data, name)
	if exists {
		return ErrExist
	}
	in, err := fs.allocInode(ModeDir, p.Now())
	if err != nil {
		return err
	}
	in.Nlink = 2
	fs.dirtyInode(in)
	return fs.writeDir(p, parent, dirAppend(data, end, name, in.Inum))
}

// Remove deletes a file or an empty directory.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	data, err := fs.dirBytes(p, parent, 0)
	if err != nil {
		return err
	}
	inum, off, ok := findDirEntry(data, name)
	if !ok {
		return ErrNotExist
	}
	in, err := fs.loadInode(p, inum)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		sub, err := fs.dirBytes(p, in, 1)
		if err != nil {
			return err
		}
		if _, _, _, any := dirRecord(sub, 0); any {
			return ErrNotEmpty
		}
	}
	if err := fs.writeDir(p, parent, dirCut(data, off)); err != nil {
		return err
	}
	return fs.removeInode(p, in)
}

// Rename moves a file or directory to a new path.  A directory cannot move
// into its own subtree (ErrInvalid): that would cut it off from the root.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	oldParent, oldName, err := fs.nameiParent(p, oldPath)
	if err != nil {
		return err
	}
	newParent, newName, err := fs.nameiParent(p, newPath)
	if err != nil {
		return err
	}
	// Directories have no ".." and no second link, so the paths tell.
	oldComps, newComps := splitPath(oldPath), splitPath(newPath)
	if len(newComps) > len(oldComps) && slices.Equal(newComps[:len(oldComps)], oldComps) {
		return ErrInvalid
	}
	oldData, err := fs.dirBytes(p, oldParent, 1)
	if err != nil {
		return err
	}
	inum, off, ok := findDirEntry(oldData, oldName)
	if !ok {
		return ErrNotExist
	}
	sameDir := oldParent.Inum == newParent.Inum
	newData := oldData
	if !sameDir {
		if newData, err = fs.dirBytes(p, newParent, 0); err != nil {
			return err
		}
	}
	if other, _, ok := findDirEntry(newData, newName); ok && other != inum {
		return ErrExist
	}

	oldData = dirCut(oldData, off)
	if sameDir {
		return fs.writeDir(p, newParent, dirAppend(oldData, off, newName, inum))
	}
	if err := fs.writeDir(p, oldParent, oldData); err != nil {
		return err
	}
	return fs.writeDir(p, newParent, dirAppend(newData, 0, newName, inum))
}

// ReadDir lists a directory, with entry modes filled in, sorted by name.
func (fs *FS) ReadDir(p *sim.Proc, path string) ([]DirEntry, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	ents, err := fs.readDirLocked(p, in)
	if err != nil {
		return nil, err
	}
	for i := range ents {
		child, err := fs.loadInode(p, ents[i].Inum)
		if err != nil {
			return nil, err
		}
		ents[i].Mode = child.Mode
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// Stat describes the object at path.
func (fs *FS) Stat(p *sim.Proc, path string) (FileInfo, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.namei(p, path)
	if err != nil {
		return FileInfo{}, err
	}
	comps := splitPath(path)
	name := "/"
	if len(comps) > 0 {
		name = comps[len(comps)-1]
	}
	return FileInfo{Name: name, Inum: in.Inum, Mode: in.Mode, Size: in.Size, MTime: sim.Time(in.MTime)}, nil
}
