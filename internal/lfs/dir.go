package lfs

import (
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
		inum := getU32(data[off:])
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
		putU32(buf[off:], e.Inum)
		buf[off+4] = byte(len(e.Name))
		buf[off+5] = byte(len(e.Name) >> 8)
		copy(buf[off+6:], e.Name)
		off += 6 + len(e.Name)
	}
	return buf
}

// findDirEntry returns the inode number directory contents record for name,
// or 0 when there is none.  It walks the encoded records in place and stops
// where parseDir stops, so it answers what a search of parseDir's result
// would without decoding an entry or allocating.
func findDirEntry(data []byte, name string) uint32 {
	for off := 0; off+6 <= len(data); {
		inum := getU32(data[off:])
		nameLen := int(data[off+4]) | int(data[off+5])<<8
		off += 6
		if inum == 0 && nameLen == 0 || off+nameLen > len(data) {
			break
		}
		if nameLen == len(name) && string(data[off:off+nameLen]) == name {
			return inum
		}
		off += nameLen
	}
	return 0
}

// dirBytes reads a directory's encoded contents into the file system's
// scratch buffer, which the next call overwrites.  Caller holds fs.mu, which
// is what makes one buffer per FS safe.
func (fs *FS) dirBytes(p *sim.Proc, in *inode) ([]byte, error) {
	if in.Mode != ModeDir {
		return nil, ErrNotDir
	}
	if int64(cap(fs.dirScratch)) < in.Size {
		fs.dirScratch = make([]byte, in.Size)
	}
	data := fs.dirScratch[:in.Size]
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
	data, err := fs.dirBytes(p, in)
	if err != nil {
		return nil, err
	}
	return parseDir(data), nil
}

// writeDir replaces a directory's contents.  Caller holds fs.mu.
func (fs *FS) writeDir(p *sim.Proc, in *inode, ents []DirEntry) error {
	if err := fs.freeInodeBlocks(p, in); err != nil {
		return err
	}
	data := marshalDir(ents)
	if len(data) > 0 {
		if _, err := fs.writeAtLocked(p, in, data, 0); err != nil {
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
		data, err := fs.dirBytes(p, in)
		if err != nil {
			return nil, err
		}
		next := findDirEntry(data, comp)
		if next == 0 {
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
	ents, err := fs.readDirLocked(p, parent)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.Name == name {
			return nil, ErrExist
		}
	}
	in, err := fs.allocInode(ModeFile, p.Now())
	if err != nil {
		return nil, err
	}
	ents = append(ents, DirEntry{Name: name, Inum: in.Inum})
	if err := fs.writeDir(p, parent, ents); err != nil {
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

// OpenInum returns a handle to an existing file by inode number.  The
// NVRAM replay path uses it to reopen files named by staged log records
// without a path walk.
func (fs *FS) OpenInum(p *sim.Proc, inum uint32) (*File, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	in, err := fs.loadInode(p, inum)
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
	ents, err := fs.readDirLocked(p, parent)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name == name {
			return ErrExist
		}
	}
	in, err := fs.allocInode(ModeDir, p.Now())
	if err != nil {
		return err
	}
	in.Nlink = 2
	fs.dirtyInode(in)
	ents = append(ents, DirEntry{Name: name, Inum: in.Inum})
	return fs.writeDir(p, parent, ents)
}

// Remove deletes a file or an empty directory.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	ents, err := fs.readDirLocked(p, parent)
	if err != nil {
		return err
	}
	idx := -1
	for i, e := range ents {
		if e.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrNotExist
	}
	in, err := fs.loadInode(p, ents[idx].Inum)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		sub, err := fs.readDirLocked(p, in)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return ErrNotEmpty
		}
	}
	ents = append(ents[:idx], ents[idx+1:]...)
	if err := fs.writeDir(p, parent, ents); err != nil {
		return err
	}
	return fs.removeInode(p, in)
}

// Rename moves a file or directory to a new path.
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
	oldEnts, err := fs.readDirLocked(p, oldParent)
	if err != nil {
		return err
	}
	var moved *DirEntry
	idx := -1
	for i := range oldEnts {
		if oldEnts[i].Name == oldName {
			moved = &oldEnts[i]
			idx = i
			break
		}
	}
	if moved == nil {
		return ErrNotExist
	}
	inum := moved.Inum

	sameDir := oldParent.Inum == newParent.Inum
	var newEnts []DirEntry
	if sameDir {
		newEnts = oldEnts
	} else {
		if newEnts, err = fs.readDirLocked(p, newParent); err != nil {
			return err
		}
	}
	for _, e := range newEnts {
		if e.Name == newName && e.Inum != inum {
			return ErrExist
		}
	}

	oldEnts = append(oldEnts[:idx], oldEnts[idx+1:]...)
	if sameDir {
		newEnts = oldEnts
	}
	newEnts = append(newEnts, DirEntry{Name: newName, Inum: inum})
	if !sameDir {
		if err := fs.writeDir(p, oldParent, oldEnts); err != nil {
			return err
		}
	}
	return fs.writeDir(p, newParent, newEnts)
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
