/* serve-bigimage tenant "fill": a dense writer. Each request mallocs
   1 MiB, memsets it and frees it: 65536 granules tagged and retagged,
   a quarter of the 4 MiB image rewritten. */

int main() {
  char *buf = (char *)malloc(1048576);
  memset(buf, 7, 1048576);
  long h = (long)buf[0] + (long)buf[1048575];
  free(buf);
  return (int)h;
}
